(** [vgfuzz]: differential guest fuzzing with replay-exact shrinking.

    {v
    vgfuzz [--seeds 1,2,3] [--count 2000] [--out DIR]   # fuzz sweep (CI entry)
    vgfuzz corpus [DIR]            # replay the committed regression corpus
    vgfuzz hostile                 # hostile suite x all tools
    vgfuzz one --seed N --size K [--faulty]   # run one program, show outcomes
    v}

    The sweep generates [--count] programs split across the base seeds
    (program [i] of base seed [s] is generated from seed
    [s * 1_000_003 + i]; every 10th program may fault on purpose) and
    runs each through the five-way differential oracle: native
    interpreter, session at 1 and 2 cores, session with AOT seeding,
    and session under an idempotent chaos schedule.  Any divergence is
    shrunk by deterministic re-generation and written to [--out] as a
    minimized [.s] repro (CI uploads that directory as an artifact). *)

let out_dir = ref "vgfuzz-repros"

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* --- fuzz sweep ------------------------------------------------------ *)

let program_seed base i = (base * 1_000_003) + i
let program_size i = 1 + (i mod 20)
let program_faulty i = i mod 10 = 9

let fuzz_sweep ~(seeds : int list) ~(count : int) : int =
  let nseeds = max 1 (List.length seeds) in
  let per = (count + nseeds - 1) / nseeds in
  let ran = ref 0 and failed = ref 0 in
  List.iter
    (fun base ->
      for i = 0 to per - 1 do
        if !ran < count then begin
          incr ran;
          let seed = program_seed base i in
          let size = program_size i in
          let faulty = program_faulty i in
          let divs =
            try Fuzz.Diff.check (Fuzz.Gen.image ~faulty ~seed ~size ())
            with exn ->
              [ { Fuzz.Diff.dv_engine = "driver"; dv_field = "exception";
                  dv_ref = "no exception"; dv_got = Printexc.to_string exn } ]
          in
          if divs <> [] then begin
            incr failed;
            Printf.printf "vgfuzz: FAIL base=%d i=%d seed=%d size=%d%s\n" base
              i seed size (if faulty then " faulty" else "");
            List.iter
              (fun d -> print_endline ("  " ^ Fuzz.Diff.pp_divergence d))
              divs;
            (* shrink by re-generation and write the minimized repro *)
            let check ~seed ~size =
              try Fuzz.Diff.check (Fuzz.Gen.image ~faulty ~seed ~size ())
              with exn ->
                [ { Fuzz.Diff.dv_engine = "driver"; dv_field = "exception";
                    dv_ref = "no exception";
                    dv_got = Printexc.to_string exn } ]
            in
            let r = Fuzz.Shrink.shrink ~check ~faulty ~seed ~size () in
            ensure_dir !out_dir;
            let path =
              Filename.concat !out_dir
                (Printf.sprintf "%s%s.s"
                   (Fuzz.Gen.name ~seed:r.Fuzz.Shrink.r_seed
                      ~size:r.Fuzz.Shrink.r_size)
                   (if faulty then "_faulty" else ""))
            in
            write_file path (Fuzz.Shrink.repro_source r);
            Printf.printf "  minimized to size %d -> %s\n"
              r.Fuzz.Shrink.r_size path
          end
        end
      done)
    seeds;
  Printf.printf "vgfuzz: %d programs, %d failing\n" !ran !failed;
  if !failed > 0 then begin
    print_endline "vgfuzz: FAILED";
    1
  end
  else begin
    print_endline "vgfuzz: OK";
    0
  end

(* --- corpus replay --------------------------------------------------- *)

let corpus_replay (dir : string) : int =
  if not (Sys.file_exists dir) then begin
    Printf.printf "vgfuzz: no corpus directory %s\n" dir;
    1
  end
  else begin
    let entries =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".s")
      |> List.sort compare
    in
    let failed = ref 0 in
    List.iter
      (fun f ->
        let path = Filename.concat dir f in
        let src = In_channel.(with_open_bin path input_all) in
        let divs = Fuzz.Diff.check (Guest.Asm.assemble src) in
        if divs = [] then Printf.printf "vgfuzz: corpus %-28s OK\n" f
        else begin
          incr failed;
          Printf.printf "vgfuzz: corpus %-28s FAIL\n" f;
          List.iter
            (fun d -> print_endline ("  " ^ Fuzz.Diff.pp_divergence d))
            divs
        end)
      entries;
    Printf.printf "vgfuzz: corpus: %d entries, %d failing\n"
      (List.length entries) !failed;
    if !failed > 0 || entries = [] then 1 else 0
  end

(* --- hostile suite --------------------------------------------------- *)

let hostile_suite () : int =
  let failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failed;
        print_endline ("vgfuzz: hostile FAIL: " ^ s))
      fmt
  in
  List.iter
    (fun (g : Fuzz.Hostile_guests.guest) ->
      let img = Fuzz.Hostile_guests.image g in
      (* native architectural reference *)
      (let t = Native.create img in
       match Native.run ~max_insns:10_000_000L t with
       | Native.Exited n when n = g.g_exit -> ()
       | r ->
           fail "%s native: expected exit %d, got %s" g.g_name g.g_exit
             (match r with
             | Native.Exited n -> Printf.sprintf "exit %d" n
             | Native.Fatal_signal s -> Printf.sprintf "signal %d" s
             | Native.Out_of_fuel -> "fuel"));
      List.iter
        (fun (tname, tool) ->
          let run ~chaos () =
            let options =
              {
                Vg_core.Session.default_options with
                max_blocks = 200_000L;
                verify_jit = false;
                transtab_capacity = 256;
                chaos;
              }
            in
            let s = Vg_core.Session.create ~options ~tool img in
            let er = Vg_core.Session.run s in
            ( er,
              Vg_core.Session.client_stdout s,
              Vg_core.Session.tool_output s )
          in
          match run ~chaos:None () with
          | exception exn ->
              fail "%s under %s: uncaught %s" g.g_name tname
                (Printexc.to_string exn)
          | (er1, out1, tool1) -> (
              (match er1 with
              | Vg_core.Session.Exited n when n = g.g_exit -> ()
              | r ->
                  fail "%s under %s: expected exit %d, got %s" g.g_name tname
                    g.g_exit
                    (match r with
                    | Vg_core.Session.Exited n -> Printf.sprintf "exit %d" n
                    | Vg_core.Session.Fatal_signal s ->
                        Printf.sprintf "signal %d" s
                    | Vg_core.Session.Out_of_fuel -> "fuel"));
              (* deterministic reports: a second identical run must
                 reproduce stdout and the tool report bit-for-bit *)
              (match run ~chaos:None () with
              | er2, out2, tool2 ->
                  if (er1, out1, tool1) <> (er2, out2, tool2) then
                    fail "%s under %s: non-deterministic report" g.g_name
                      tname
              | exception exn ->
                  fail "%s under %s (rerun): uncaught %s" g.g_name tname
                    (Printexc.to_string exn));
              (* graceful degradation: an idempotent chaos schedule must
                 preserve the architectural result *)
              match
                run
                  ~chaos:(Some (Chaos.create (Chaos.idempotent ~seed:3)))
                  ()
              with
              | exception exn ->
                  fail "%s under %s (chaos): uncaught %s" g.g_name tname
                    (Printexc.to_string exn)
              | er3, out3, _tool3 -> (
                  if out3 <> out1 then
                    fail "%s under %s (chaos): stdout changed" g.g_name tname;
                  match er3 with
                  | Vg_core.Session.Exited n when n = g.g_exit -> ()
                  | _ ->
                      fail "%s under %s (chaos): wrong exit" g.g_name tname)))
        Tools.Table.sweep;
      Printf.printf "vgfuzz: hostile %-12s checked under %d tools\n" g.g_name
        (List.length Tools.Table.sweep))
    (Fuzz.Hostile_guests.all ());
  if !failed > 0 then begin
    print_endline "vgfuzz: FAILED";
    1
  end
  else begin
    print_endline "vgfuzz: OK";
    0
  end

(* --- one program (debug) --------------------------------------------- *)

let run_one ~seed ~size ~faulty : int =
  print_endline (Fuzz.Gen.source ~faulty ~seed ~size ());
  let divs = Fuzz.Diff.check (Fuzz.Gen.image ~faulty ~seed ~size ()) in
  if divs = [] then begin
    print_endline "vgfuzz: agree";
    0
  end
  else begin
    List.iter (fun d -> print_endline (Fuzz.Diff.pp_divergence d)) divs;
    1
  end

(* --- argv ------------------------------------------------------------ *)

let parse_seeds s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let seeds = ref [ 1; 2; 3 ] in
  let count = ref 300 in
  let seed = ref 1 in
  let size = ref 8 in
  let faulty = ref false in
  let mode = ref `Fuzz in
  let rec go = function
    | [] -> ()
    | "corpus" :: rest ->
        mode := `Corpus "test/fuzz_corpus";
        (match rest with
        | d :: rest' when not (String.length d > 1 && d.[0] = '-') ->
            mode := `Corpus d;
            go rest'
        | _ -> go rest)
    | "hostile" :: rest ->
        mode := `Hostile;
        go rest
    | "one" :: rest ->
        mode := `One;
        go rest
    | "--seeds" :: v :: rest ->
        seeds := parse_seeds v;
        go rest
    | "--count" :: v :: rest ->
        count := int_of_string v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--size" :: v :: rest ->
        size := int_of_string v;
        go rest
    | "--faulty" :: rest ->
        faulty := true;
        go rest
    | "--out" :: v :: rest ->
        out_dir := v;
        go rest
    | a :: _ ->
        prerr_endline ("vgfuzz: unknown argument " ^ a);
        exit 2
  in
  go args;
  let code =
    match !mode with
    | `Fuzz -> fuzz_sweep ~seeds:!seeds ~count:!count
    | `Corpus d -> corpus_replay d
    | `Hostile -> hostile_suite ()
    | `One -> run_one ~seed:!seed ~size:!size ~faulty:!faulty
  in
  exit code
