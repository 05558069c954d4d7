(** Bechamel micro-benchmarks of the JIT pipeline itself (wall-clock,
    not simulated cycles): per-phase translation costs over a workload's
    real code blocks.  This quantifies the paper's D&R observation that
    "a D&R JIT compiler will probably also translate code more slowly"
    than a C&A one — and that heavyweight instrumentation (Memcheck)
    multiplies the translation cost again.  A last case times the host
    interpreter that runs the translations, per host instruction. *)

open Bechamel
open Toolkit

(* collect a corpus of block start addresses by running a workload *)
let corpus () =
  let w = Option.get (Workloads.find "bzip2") in
  let img = Workloads.compile ~scale:1 w in
  let s = Vg_core.Session.create ~tool:Vg_core.Tool.nulgrind img in
  (match Vg_core.Session.run s with
  | Vg_core.Session.Exited _ -> ()
  | _ -> ());
  let keys =
    Vg_core.Transtab.all_entries s.transtab
    |> List.map (fun e -> e.Vg_core.Transtab.e_key)
  in
  (s, Array.of_list keys)

(* Host interpreter speed.  One call runs a set of resident
   translations of the finished session once each, in address order,
   on a fresh cpu over the session's memory.  Every pass starts from
   the session's final ThreadState, copied straight into its pages so
   the copy costs little next to the pass.  A block can still fault on
   the registers the blocks before it left, so the set is whittled down
   until a pass runs with no fault.  A faulting block's time would count
   but not its instructions, so if any timed pass faults the figure is
   refused rather than printed. *)
let host_interp (s : Vg_core.Session.t) =
  let cpu = Host.Interp.create s.mem in
  let ts = s.threads.current.Vg_core.Threads.ts_addr in
  let ts_size = Vg_core.Threads.ts_size in
  let ts0 = Aspace.read_bytes s.mem ts ts_size in
  let rec reset_ts off =
    if off < ts_size then begin
      let a = Int64.add ts (Int64.of_int off) in
      let page = Option.get (Aspace.find_page s.mem (Aspace.page_index a)) in
      let po = Aspace.page_offset a in
      let n = min (ts_size - off) (Aspace.page_size - po) in
      Bytes.blit ts0 off page.data po n;
      reset_ts (off + n)
    end
  in
  let run_ok c =
    Host.Interp.set_reg cpu Host.Arch.gsp ts;
    match Host.Interp.run cpu ~env:s.henv c with
    | _ -> true
    | exception (Aspace.Fault _ | Host.Interp.Host_sigfpe) -> false
  in
  let rec whittle tries code =
    reset_ts 0;
    let kept = List.filter run_ok code in
    if tries = 0 || List.length kept = List.length code then kept
    else whittle (tries - 1) kept
  in
  let code =
    Vg_core.Transtab.all_entries s.transtab
    |> List.sort (fun a b ->
           Int64.compare a.Vg_core.Transtab.e_key b.Vg_core.Transtab.e_key)
    |> List.map (fun e -> e.Vg_core.Transtab.e_trans.Jit.Pipeline.t_decoded)
    |> whittle 20 |> Array.of_list
  in
  let insns0 = cpu.insns and passes = ref 0 and faults = ref 0 in
  let pass () =
    incr passes;
    reset_ts 0;
    Array.iter (fun c -> if not (run_ok c) then incr faults) code
  in
  let insns_per_call () =
    if !faults > 0 then
      Error (Printf.sprintf "%d faults in %d timed passes" !faults !passes)
    else Ok (Int64.to_float (Int64.sub cpu.insns insns0) /. float (max 1 !passes))
  in
  (Test.make ~name:"host-interp" (Staged.stage pass), "ns/host insn",
   insns_per_call)

let make_tests () =
  let s, keys = corpus () in
  let mem = s.mem in
  let fetch a = Aspace.fetch_u8 mem a in
  let n = Array.length keys in
  let idx = ref 0 in
  let next_key () =
    let k = keys.(!idx mod n) in
    incr idx;
    k
  in
  (* a Memcheck instrumenter detached from any running session *)
  let img = Workloads.compile ~scale:1 (Option.get (Workloads.find "bzip2")) in
  let s2 = Vg_core.Session.create ~tool:Tools.Memcheck.tool img in
  Vg_core.Session.startup s2;
  let mc_instr = Vg_core.Session.instrument_fn s2 in
  let fetch2 a = Aspace.fetch_u8 s2.mem a in
  let per_block t = (t, "ns/block", fun () -> Ok 1.) in
  List.map per_block
  [
    Test.make ~name:"phase1 disasm"
      (Staged.stage (fun () -> ignore (Jit.Disasm.superblock ~fetch (next_key ()))));
    Test.make ~name:"phases 1-2 (disasm+opt1)"
      (Staged.stage (fun () ->
           let b, _ = Jit.Disasm.superblock ~fetch (next_key ()) in
           ignore (Jit.Opt.opt1 b)));
    Test.make ~name:"full pipeline, nulgrind"
      (Staged.stage (fun () ->
           ignore
             (Jit.Pipeline.translate ~fetch
                ~instrument:Jit.Pipeline.no_instrument (next_key ()))));
    Test.make ~name:"full pipeline, memcheck"
      (Staged.stage (fun () ->
           ignore
             (Jit.Pipeline.translate ~fetch:fetch2 ~instrument:mc_instr
                (next_key ()))));
  ]
  @ [ host_interp s ]

let run () =
  Harness.section
    "Micro: JIT translation and host interpreter wall-clock costs (Bechamel)";
  let tests = make_tests () in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun (test, unit, per_call) ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some (t :: _) -> (
              match per_call () with
              | Ok k -> Printf.printf "%-28s %12.2f %s\n%!" name (t /. k) unit
              | Error why -> Printf.printf "%-28s refused: %s\n%!" name why)
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        analyzed)
    tests
