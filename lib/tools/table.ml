(** Every tool plug-in, under the name the drivers accept for it. *)

let all : (string * Vg_core.Tool.t) list =
  [
    ("nulgrind", Vg_core.Tool.nulgrind);
    ("memcheck", Memcheck.tool);
    ("memcheck-origins", Memcheck.tool_origins);
    ("cachegrind", Cachegrind.tool);
    ("massif", Massif.tool);
    ("lackey", Lackey.tool);
    ("taintgrind", Taintgrind.tool);
    ("annelid", Annelid.tool);
    ("redux", Redux.tool);
    ("drd", Drd.tool);
    ("icnti", Icnt.icnt_inline);
    ("icntc", Icnt.icnt_call);
  ]

(** The eleven tools the corpus sweeps cover: all but drd. *)
let sweep = List.filter (fun (name, _) -> name <> "drd") all
