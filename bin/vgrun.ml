(** Native runner: execute a VG32 program directly on the reference
    interpreter (the Table-2 baseline), without any tool. *)

let () =
  let path = ref None in
  let stats = ref false in
  Arg.parse
    [ ("--stats", Arg.Set stats, "print cycle statistics at exit") ]
    (fun p -> path := Some p)
    "vgrun [--stats] PROGRAM";
  match !path with
  | None ->
      prerr_endline "vgrun: no program given";
      exit 2
  | Some p ->
      let img =
        try
          if Filename.check_suffix p ".s" || Filename.check_suffix p ".asm"
          then Guest.Asm.assemble In_channel.(with_open_bin p input_all)
          else Minicc.Driver.compile In_channel.(with_open_bin p input_all)
        with
        | Minicc.Driver.Compile_error m ->
            Printf.eprintf "vgrun: %s: %s\n" p m;
            exit 2
        | Guest.Asm.Error { line; msg } ->
            Printf.eprintf "vgrun: %s:%d: %s\n" p line msg;
            exit 2
      in
      let eng = Native.create img in
      eng.kern.stdout_echo <- true;
      let reason = Native.run eng in
      if !stats then
        Printf.eprintf "vgrun: %Ld instructions, %Ld cycles\n"
          (Native.total_insns eng) (Native.total_cycles eng);
      (match reason with
      | Native.Exited n -> exit (n land 0xFF)
      | Native.Fatal_signal sg ->
          Printf.eprintf "vgrun: fatal signal %s\n" (Kernel.Sig.name sg);
          exit (128 + sg)
      | Native.Out_of_fuel -> exit 3)
