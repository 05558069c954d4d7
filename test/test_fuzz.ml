(* Vgfuzz: the differential fuzzing harness itself — generator
   determinism, replay-exact shrinking, the committed regression corpus,
   faulting-PC attribution down the degradation ladder, and the hostile
   anti-instrumentation suite (execution contract + lint classes). *)

let t name f = Alcotest.test_case name `Quick f

module GA = Guest.Arch

(* ---- generator determinism ---------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun (seed, size, faulty) ->
      let a = Fuzz.Gen.source ~faulty ~seed ~size () in
      let b = Fuzz.Gen.source ~faulty ~seed ~size () in
      Alcotest.(check string)
        (Printf.sprintf "seed=%d size=%d regenerates identically" seed size)
        a b;
      (* and it assembles *)
      ignore (Guest.Asm.assemble a))
    [ (1, 1, false); (7, 12, false); (1000032, 4, true); (99, 20, true) ]

(* plain substring search (avoid extra deps) *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- shrinking ------------------------------------------------------ *)

let test_shrink_minimal_deterministic () =
  (* synthetic failure predicate: sizes >= 7 fail.  The upward scan must
     probe exactly 1..7 and stop at the first failing size — which is
     minimal by construction: every smaller size was just observed to
     pass. *)
  let probed = ref [] in
  let check ~seed:_ ~size =
    probed := size :: !probed;
    if size >= 7 then
      [ { Fuzz.Diff.dv_engine = "synthetic"; dv_field = "exit";
          dv_ref = "a"; dv_got = "b" } ]
    else []
  in
  let r = Fuzz.Shrink.shrink ~check ~seed:42 ~size:15 () in
  Alcotest.(check int) "minimal size" 7 r.Fuzz.Shrink.r_size;
  Alcotest.(check int) "original size kept" 15 r.Fuzz.Shrink.r_orig_size;
  Alcotest.(check (list int)) "scan order 1..7" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !probed);
  (* determinism: the same failure shrinks to the same result *)
  let r2 = Fuzz.Shrink.shrink ~check ~seed:42 ~size:15 () in
  Alcotest.(check int) "same minimal size on rerun" r.Fuzz.Shrink.r_size
    r2.Fuzz.Shrink.r_size;
  (* the rendered repro embeds provenance and the generated program *)
  let src = Fuzz.Shrink.repro_source r in
  Alcotest.(check bool) "repro records seed" true (contains src "seed=42")

let test_repro_source_faulty_exact () =
  (* the rendered repro must embed the *same* program that failed: the
     generator's faulty flag is part of the program identity *)
  let check ~seed:_ ~size:_ =
    [ { Fuzz.Diff.dv_engine = "synthetic"; dv_field = "exit";
        dv_ref = "a"; dv_got = "b" } ]
  in
  let r = Fuzz.Shrink.shrink ~check ~faulty:true ~seed:1000032 ~size:4 () in
  let src = Fuzz.Shrink.repro_source r in
  Alcotest.(check bool) "faulty generator program embedded" true
    (contains src
       (Fuzz.Gen.source ~faulty:true ~seed:1000032 ~size:r.Fuzz.Shrink.r_size
          ()))

(* ---- the committed regression corpus -------------------------------- *)

let corpus_dir =
  (* dune runtest runs in _build/default/test; dune exec from the repo
     root *)
  if Sys.file_exists "fuzz_corpus" then "fuzz_corpus" else "test/fuzz_corpus"

let read_corpus f =
  In_channel.(with_open_bin (Filename.concat corpus_dir f) input_all)

let test_corpus_replay () =
  let entries =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus has at least 5 entries" true
    (List.length entries >= 5);
  List.iter
    (fun f ->
      let img = Guest.Asm.assemble (read_corpus f) in
      match Fuzz.Diff.check img with
      | [] -> ()
      | divs ->
          Alcotest.failf "%s: %s" f
            (String.concat "; " (List.map Fuzz.Diff.pp_divergence divs)))
    entries

(* ---- faulting-PC attribution ---------------------------------------- *)

(* Drive a whole program through Interp.step_external: architectural
   state lives in an external byte buffer (as it does in the session's
   ThreadState), and a mid-run fault must leave eip pinned at the
   faulting instruction — the graceful-degradation contract. *)
let run_step_external (img : Guest.Image.t) :
    [ `Fault of int64 | `Exit ] =
  let mem = Aspace.create () in
  let entry, sp, _brk, _mapped = Guest.Image.load img mem in
  let state = Bytes.make GA.state_size '\000' in
  let get off size =
    let v = ref 0L in
    for i = size - 1 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get state (off + i))))
    done;
    !v
  in
  let put off size v =
    for i = 0 to size - 1 do
      Bytes.set state (off + i)
        (Char.chr
           (Int64.to_int
              (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done
  in
  put GA.off_sp 4 sp;
  put (GA.off_reg GA.reg_fp) 4 sp;
  put GA.off_eip 4 entry;
  let result = ref None in
  let steps = ref 0 in
  while !result = None do
    incr steps;
    if !steps > 10_000 then failwith "step_external runaway";
    match Guest.Interp.step_external ~mem ~get ~put with
    | _, Guest.Interp.X_next -> ()
    | _, (Guest.Interp.X_syscall | Guest.Interp.X_clreq) ->
        (* first syscall in these programs is exit *)
        result := Some `Exit
    | exception Aspace.Fault _ ->
        (* nothing written back: eip still names the faulting insn *)
        result := Some (`Fault (get GA.off_eip 4))
  done;
  Option.get !result

let test_fault_attribution_ladder () =
  let src = read_corpus "fault_attribution.s" in
  let img () = Guest.Asm.assemble src in
  (* native reference *)
  let nat = Fuzz.Diff.run_native (img ()) in
  (match nat.Fuzz.Diff.o_exit with
  | Fuzz.Diff.Signal 11 -> ()
  | k -> Alcotest.failf "native: expected SIGSEGV, got %s"
           (Fuzz.Diff.exit_kind_str k));
  let fault_pc = nat.Fuzz.Diff.o_eip in
  (* JIT path *)
  let jit =
    Fuzz.Diff.run_session
      { Fuzz.Diff.v_name = "jit"; v_cores = 1; v_aot = false;
        v_chaos = None; v_degrade = false }
      (img ())
  in
  Alcotest.(check int64) "jit faulting pc" fault_pc jit.Fuzz.Diff.o_eip;
  (* forced interp-fallback (every translation refused) *)
  let deg =
    Fuzz.Diff.run_session
      { Fuzz.Diff.v_name = "degrade"; v_cores = 1; v_aot = false;
        v_chaos = None; v_degrade = true }
      (img ())
  in
  Alcotest.(check int64) "degraded faulting pc" fault_pc
    deg.Fuzz.Diff.o_eip;
  (match deg.Fuzz.Diff.o_exit with
  | Fuzz.Diff.Signal 11 -> ()
  | k -> Alcotest.failf "degrade: expected SIGSEGV, got %s"
           (Fuzz.Diff.exit_kind_str k));
  (* bare step_external *)
  match run_step_external (img ()) with
  | `Fault pc -> Alcotest.(check int64) "step_external faulting pc" fault_pc pc
  | `Exit -> Alcotest.fail "step_external: expected a fault"

(* the dead-load regression specifically: the minimized fuzzer repro must
   deliver the same signal at the same pc under JIT as natively *)
let test_dead_load_fault_survives_dce () =
  let img () =
    Guest.Asm.assemble
      (read_corpus "deadload_sigsegv_1.s")
  in
  let nat = Fuzz.Diff.run_native (img ()) in
  let jit =
    Fuzz.Diff.run_session
      { Fuzz.Diff.v_name = "jit"; v_cores = 1; v_aot = false;
        v_chaos = None; v_degrade = false }
      (img ())
  in
  Alcotest.(check string) "exit kind"
    (Fuzz.Diff.exit_kind_str nat.Fuzz.Diff.o_exit)
    (Fuzz.Diff.exit_kind_str jit.Fuzz.Diff.o_exit);
  Alcotest.(check int64) "faulting pc" nat.Fuzz.Diff.o_eip
    jit.Fuzz.Diff.o_eip

(* ---- hostile suite --------------------------------------------------- *)

let hostile_tools =
  [ ("nulgrind", Vg_core.Tool.nulgrind); ("memcheck", Tools.Memcheck.tool);
    ("lackey", Tools.Lackey.tool) ]

let run_hostile ?chaos tool img =
  let options =
    { Vg_core.Session.default_options with
      max_blocks = 200_000L; verify_jit = false; transtab_capacity = 256;
      chaos }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  let er = Vg_core.Session.run s in
  (er, Vg_core.Session.client_stdout s, Vg_core.Session.tool_output s)

let test_hostile_execution_contract () =
  List.iter
    (fun (g : Fuzz.Hostile_guests.guest) ->
      let img () = Fuzz.Hostile_guests.image g in
      (* native architectural reference *)
      (match Native.run ~max_insns:10_000_000L (Native.create (img ())) with
      | Native.Exited n when n = g.Fuzz.Hostile_guests.g_exit -> ()
      | r ->
          Alcotest.failf "%s native: expected exit %d got %s"
            g.Fuzz.Hostile_guests.g_name g.Fuzz.Hostile_guests.g_exit
            (match r with
            | Native.Exited n -> string_of_int n
            | Native.Fatal_signal s -> Printf.sprintf "signal %d" s
            | Native.Out_of_fuel -> "fuel"));
      List.iter
        (fun (tname, tool) ->
          let er1, out1, tool1 = run_hostile tool (img ()) in
          (match er1 with
          | Vg_core.Session.Exited n when n = g.Fuzz.Hostile_guests.g_exit ->
              ()
          | _ ->
              Alcotest.failf "%s under %s: wrong exit"
                g.Fuzz.Hostile_guests.g_name tname);
          (* determinism: bit-identical rerun *)
          let er2, out2, tool2 = run_hostile tool (img ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s deterministic"
               g.Fuzz.Hostile_guests.g_name tname)
            true
            ((er1, out1, tool1) = (er2, out2, tool2)))
        hostile_tools)
    (Fuzz.Hostile_guests.all ())

let test_hostile_lint_classes () =
  List.iter
    (fun (g : Fuzz.Hostile_guests.guest) ->
      let classes =
        Static.Lint.classes_of
          (Static.Lint.run (Static.Cfg.scan (Fuzz.Hostile_guests.image g)))
      in
      List.iter
        (fun want ->
          Alcotest.(check bool)
            (Printf.sprintf "%s flags %s" g.Fuzz.Hostile_guests.g_name want)
            true (List.mem want classes))
        g.Fuzz.Hostile_guests.g_lints)
    (Fuzz.Hostile_guests.all ())

let test_crash_context_on_refused_translation () =
  (* interp_fallback off + every translation refused: the session cannot
     make progress.  The escaping error must leave a post-mortem crash
     context on the tool output stream. *)
  let img =
    Guest.Asm.assemble
      (read_corpus "overlap_decode.s")
  in
  let tool, _tot = Fuzz.Diff.witness_tool () in
  let chaos =
    Chaos.create
      { (Chaos.idempotent ~seed:1) with
        Chaos.p_eintr = 0.0; p_errno = 0.0; p_short = 0.0;
        p_map_denial = 0.0; p_flush = 0.0; p_translation_failure = 1.0;
        max_injections = 0 }
  in
  let options =
    { Vg_core.Session.default_options with
      interp_fallback = false; chaos = Some chaos; verify_jit = false }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  (match Vg_core.Session.run s with
  | _ -> Alcotest.fail "expected the refused translation to escape"
  | exception _ -> ());
  let out = Vg_core.Session.tool_output s in
  Alcotest.(check bool) "crash context rendered" true
    (contains out "FATAL: unrecoverable error")

let tests =
  [
    t "generator: deterministic regeneration" test_gen_deterministic;
    t "shrink: minimal and deterministic" test_shrink_minimal_deterministic;
    t "shrink: repro embeds the faulty program"
      test_repro_source_faulty_exact;
    t "corpus: replays divergence-free" test_corpus_replay;
    t "fault attribution: native/jit/degrade/step_external"
      test_fault_attribution_ladder;
    t "dead load keeps its fault through DCE"
      test_dead_load_fault_survives_dce;
    t "hostile: execution contract under tools"
      test_hostile_execution_contract;
    t "hostile: lint classes fire" test_hostile_lint_classes;
    t "hostile: crash context on refused translation"
      test_crash_context_on_refused_translation;
  ]
