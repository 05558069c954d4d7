(** mini-C compiler driver: print the generated VG32 assembly. *)

let () =
  let path = ref None in
  let no_libc = ref false in
  Arg.parse
    [ ("--no-libc", Arg.Set no_libc, "do not link the guest libc") ]
    (fun p -> path := Some p)
    "minicc [--no-libc] FILE.c";
  match !path with
  | None ->
      prerr_endline "minicc: no input file";
      exit 2
  | Some p -> (
      let src = In_channel.(with_open_bin p input_all) in
      try
        let _img, asm =
          Minicc.Driver.compile_with_asm ~with_libc:(not !no_libc) src
        in
        print_string asm
      with Minicc.Driver.Compile_error m | Minicc.Codegen.Error m ->
        Printf.eprintf "minicc: %s\n" m;
        exit 1)
