(** VG32 assembler driver: assemble a .s file and print the image layout
    with a disassembly listing (round-tripped through the decoder). *)

let () =
  let path = ref None in
  Arg.parse [] (fun p -> path := Some p) "vgasm FILE.s";
  match !path with
  | None ->
      prerr_endline "vgasm: no input file";
      exit 2
  | Some p -> (
      let src = In_channel.(with_open_bin p input_all) in
      try
        let img = Guest.Asm.assemble src in
        Printf.printf "text: 0x%LX, %d bytes\n" img.text_addr
          (Bytes.length img.text);
        Printf.printf "data: 0x%LX, %d bytes\n" img.data_addr
          (Bytes.length img.data);
        Printf.printf "entry: 0x%LX\n\n" img.entry;
        let fetch a =
          Char.code
            (Bytes.get img.text (Int64.to_int (Int64.sub a img.text_addr)))
        in
        let pos = ref img.text_addr in
        let limit = Int64.add img.text_addr (Int64.of_int (Bytes.length img.text)) in
        while Int64.unsigned_compare !pos limit < 0 do
          let insn, len = Guest.Decode.decode fetch !pos in
          (match Guest.Image.symbol_for img !pos with
          | Some (name, a) when a = !pos -> Printf.printf "%s:\n" name
          | _ -> ());
          Format.printf "  %08LX:  %a@." !pos Guest.Arch.pp_insn insn;
          pos := Int64.add !pos (Int64.of_int len)
        done
      with Guest.Asm.Error { line; msg } ->
        Printf.eprintf "vgasm: %s:%d: %s\n" p line msg;
        exit 1)
