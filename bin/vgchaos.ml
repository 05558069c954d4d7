(** [vgchaos]: the deterministic fault-injection driver.

    {v
    vgchaos sweep [--seeds 1,2,3]     # CI entry: corpus x tools x seeds
    vgchaos --seed N [--schedule idempotent|hostile]
            [--tool NAME] [--workload NAME]   # one cell, fault log shown
    v}

    Every cell of the sweep runs one (workload, tool, seed) triple five
    times and asserts the robustness contract:

    - {b no uncaught exceptions}: the session survives every injected
      fault (transient syscall errors, short I/O, mapping denials,
      forced translation failures at any of the eight JIT phases,
      forced code-cache flushes) by recovering, not by dying;
    - {b idempotent-schedule equivalence}: under a schedule whose faults
      are all transparently recoverable (EINTR restarted, denials
      retried, translation failures interpreted, flushes retranslated),
      client stdout, exit status and tool output are bit-identical to
      the fault-free baseline — instrumentation stays sound through
      every degradation;
    - {b replay determinism}: re-running any schedule with the same seed
      reproduces the exact same fault log, outputs and counters. *)

let corpus_workloads = [ "gcc"; "mcf"; "perlbmk"; "vortex" ]

(* A syscall-heavy client, additional to the paper corpus: the SPEC-shaped
   workloads never call read/mmap directly, so this one exists to push the
   wrapper's EINTR-restart and mapping-retry paths during the sweep. *)
let io_src =
  {|
int main() {
  char buf[64];
  int fd = open("data.txt", 0);
  int total = 0;
  int n = read(fd, buf, 64);
  while (n > 0) {
    total = total + n;
    n = read(fd, buf, 64);
  }
  close(fd);
  int i;
  for (i = 0; i < 16; i = i + 1) {
    char *p = mmap(4096);
    if ((int)p > 0) {
      p[0] = 'x';
      p = mremap(p, 4096, 8192);
      if ((int)p > 0) { munmap(p, 8192); }
    }
  }
  print_str("io total=");
  print_int(total);
  print_str("\n");
  return 0;
}
|}

let images () : (string * Guest.Image.t) list =
  List.map
    (fun wname ->
      match Workloads.find wname with
      | Some w -> (wname, Workloads.compile ~scale:1 w)
      | None -> failwith ("unknown workload " ^ wname))
    corpus_workloads
  @ [ ("io", Minicc.Driver.compile io_src) ]

type outcome = {
  o_exit : string;
  o_stdout : string;
  o_tool : string;
  o_log : string list;  (** chaos fault log (empty for baselines) *)
  o_digest : string;  (** counters that must replay bit-identically *)
  o_fallbacks : int;
  o_faults : int;
}

let exit_str = function
  | Vg_core.Session.Exited n -> Printf.sprintf "exit %d" n
  | Vg_core.Session.Fatal_signal n -> Printf.sprintf "fatal signal %d" n
  | Vg_core.Session.Out_of_fuel -> "out of fuel"

(* Trace artifacts: structured event dumps written next to the sweep for
   post-mortem (and uploaded by CI when a cell fails). *)
let trace_dir = "vgchaos-traces"

let ensure_dir_of (prefix : string) =
  let dir = Filename.dirname prefix in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* [trace_to]: record the session's structured events and write them to
   <prefix>.jsonl + <prefix>.chrome.json (Chrome trace_event format). *)
let run_one ?trace_to ?(cores = 1) ~(tool : Vg_core.Tool.t)
    ~(img : Guest.Image.t) ~(chaos : Chaos.t option) () :
    (outcome, string) result =
  let options =
    {
      Vg_core.Session.default_options with
      cores;
      max_blocks = 10_000L;
      verify_jit = false;
      (* small code cache: chunk eviction happens under every schedule *)
      transtab_capacity = 256;
      chaos;
      trace_capacity = (if trace_to = None then 0 else 65536);
    }
  in
  let s = Vg_core.Session.create ~options ~tool img in
  Kernel.add_file s.kern "data.txt"
    (String.init 777 (fun i -> Char.chr (33 + (i mod 90))));
  let dump_trace () =
    match (trace_to, Vg_core.Session.trace s) with
    | Some prefix, Some tr ->
        ensure_dir_of prefix;
        write_file (prefix ^ ".jsonl") (Obs.Trace.to_jsonl tr);
        write_file (prefix ^ ".chrome.json") (Obs.Trace.to_chrome tr);
        Fmt.pr "  trace: %d events -> %s.jsonl, %s.chrome.json@."
          (Obs.Trace.total tr) prefix prefix
    | _ -> ()
  in
  match Vg_core.Session.run s with
  | exception e ->
      dump_trace ();
      Error (Printexc.to_string e)
  | reason ->
      dump_trace ();
      let st = Vg_core.Session.stats s in
      Ok
        {
          o_exit = exit_str reason;
          o_stdout = Vg_core.Session.client_stdout s;
          o_tool = Vg_core.Session.tool_output s;
          o_log = (match chaos with Some c -> Chaos.log_lines c | None -> []);
          o_digest =
            Printf.sprintf
              "blocks=%Ld translations=%d fallbacks=%d uninstr=%d \
               flushes=%d restarts=%d errnos=%d short=%d mapretries=%d \
               cycles=%Ld"
              st.st_blocks st.st_translations st.st_interp_fallbacks
              st.st_uninstrumented_steps st.st_chaos_flushes
              st.st_syscall_restarts st.st_injected_errnos st.st_short_io
              st.st_map_retries st.st_total_cycles;
          o_fallbacks = st.st_interp_fallbacks;
          o_faults = (match chaos with Some c -> Chaos.n_injected c | None -> 0);
        }

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

let fail cell what = incr failures; Fmt.pr "%s FAIL: %s@." cell what

let expect cell what cond = if not cond then fail cell what

let expect_eq cell what a b =
  if a <> b then
    fail cell (Printf.sprintf "%s diverged:\n  --- %S\n  +++ %S" what a b)

let sanitize cell =
  String.map (fun c -> if c = ' ' then '_' else c) cell

let rec run_cell ~cell ~tool ~img ~seed : unit =
  let failures0 = !failures in
  run_cell_inner ~cell ~tool ~img ~seed;
  (* a failed cell gets a post-mortem: replay both schedules with the
     structured trace enabled and keep the artifacts for CI upload *)
  if !failures > failures0 then begin
    Fmt.pr "%s: replaying with --trace for post-mortem@." cell;
    List.iter
      (fun (sched, cfg) ->
        ignore
          (run_one
             ~trace_to:
               (Filename.concat trace_dir (sanitize cell ^ "-" ^ sched))
             ~tool ~img
             ~chaos:(Some (Chaos.create cfg))
             ()))
      [ ("idempotent", Chaos.idempotent ~seed); ("hostile", Chaos.hostile ~seed) ]
  end

and run_cell_inner ~cell ~tool ~img ~seed : unit =
  match run_one ~tool ~img ~chaos:None () with
  | Error e -> fail cell ("baseline raised " ^ e)
  | Ok base -> (
      let chaos_run cfg =
        run_one ~tool ~img ~chaos:(Some (Chaos.create cfg)) ()
      in
      (* 1. idempotent schedule: must be invisible in all outputs *)
      match chaos_run (Chaos.idempotent ~seed) with
      | Error e -> fail cell ("idempotent schedule raised " ^ e)
      | Ok idem -> (
          expect_eq cell "idempotent exit" base.o_exit idem.o_exit;
          expect_eq cell "idempotent client stdout" base.o_stdout idem.o_stdout;
          expect_eq cell "idempotent tool output" base.o_tool idem.o_tool;
          (* 2. replay: same seed => bit-identical everything *)
          match chaos_run (Chaos.idempotent ~seed) with
          | Error e -> fail cell ("idempotent replay raised " ^ e)
          | Ok idem' -> (
              expect cell "idempotent replay fault log"
                (idem.o_log = idem'.o_log);
              expect_eq cell "idempotent replay digest" idem.o_digest
                idem'.o_digest;
              expect_eq cell "idempotent replay tool output" idem.o_tool
                idem'.o_tool;
              (* 3. hostile schedule: survival + replay, not equivalence *)
              match chaos_run (Chaos.hostile ~seed) with
              | Error e -> fail cell ("hostile schedule raised " ^ e)
              | Ok h1 -> (
                  match chaos_run (Chaos.hostile ~seed) with
                  | Error e -> fail cell ("hostile replay raised " ^ e)
                  | Ok h2 ->
                      expect cell "hostile replay fault log"
                        (h1.o_log = h2.o_log);
                      expect_eq cell "hostile replay digest" h1.o_digest
                        h2.o_digest;
                      expect_eq cell "hostile replay stdout" h1.o_stdout
                        h2.o_stdout;
                      expect_eq cell "hostile replay tool output" h1.o_tool
                        h2.o_tool;
                      Fmt.pr
                        "%s ok (idem %d faults, hostile %d faults, %d+%d \
                         interp fallbacks)@."
                        cell idem.o_faults h1.o_faults idem.o_fallbacks
                        h1.o_fallbacks))))

(* ------------------------------------------------------------------ *)
(* Sharded-scheduler cells: --cores 2 under the sharded schedule        *)
(* ------------------------------------------------------------------ *)

(* A 2-thread racy client (no locks: plain yields drive scheduling).
   Under --cores 2 the inter-core interleaving is cycle-driven, so chaos
   timing noise (handoff stalls, retire delays, fallback costs) shifts
   it — equivalence with the fault-free baseline is not the contract
   here.  Replay is: the same seed must reproduce the fault schedule
   injection-for-injection and every output bit. *)
let threaded_src =
  {|
int counter;
int done1;
int done2;
char stk1[4096];
char stk2[4096];

void worker1() {
  int i;
  for (i = 0; i < 100; i = i + 1) { counter = counter + 1; }
  done1 = 1;
  thread_exit();
}

void worker2() {
  int i;
  for (i = 0; i < 100; i = i + 1) { counter = counter + 1; }
  done2 = 1;
  thread_exit();
}

int main() {
  thread_create((int)&worker1, (int)stk1 + 4088, 0);
  thread_create((int)&worker2, (int)stk2 + 4088, 0);
  while (done1 == 0 || done2 == 0) { yield(); }
  print_str("counter=");
  print_int(counter);
  print_str("\n");
  return 0;
}
|}

let run_sharded_cells ~(seed : int) ~(mcf : Guest.Image.t) : unit =
  let img = Minicc.Driver.compile threaded_src in
  List.iter
    (fun (tname, tool) ->
      let cell = Printf.sprintf "threads  %-16s seed %d x2 cores" tname seed in
      let chaos_run () =
        run_one ~cores:2 ~tool ~img
          ~chaos:(Some (Chaos.create (Chaos.sharded ~seed)))
          ()
      in
      match run_one ~cores:2 ~tool ~img ~chaos:None () with
      | Error e -> fail cell ("cores=2 baseline raised " ^ e)
      | Ok _ -> (
          match (chaos_run (), chaos_run ()) with
          | Error e, _ -> fail cell ("sharded schedule raised " ^ e)
          | _, Error e -> fail cell ("sharded replay raised " ^ e)
          | Ok c1, Ok c2 ->
              expect cell "sharded replay fault log" (c1.o_log = c2.o_log);
              expect_eq cell "sharded replay digest" c1.o_digest c2.o_digest;
              expect_eq cell "sharded replay stdout" c1.o_stdout c2.o_stdout;
              expect_eq cell "sharded replay tool output" c1.o_tool c2.o_tool;
              Fmt.pr "%s ok (%d faults, replayed exactly)@." cell c1.o_faults))
    [
      ("nulgrind", Vg_core.Tool.nulgrind);
      ("lackey", Tools.Lackey.tool);
      ("memcheck", Tools.Memcheck.tool);
    ];
  (* a single-threaded client only ever steps core 0: even under the
     idempotent fault schedule, --cores 2 must be bit-identical to the
     --cores 1 fault-free baseline *)
  let cell = Printf.sprintf "mcf      %-16s seed %d x2 cores" "memcheck" seed in
  match
    ( run_one ~tool:Tools.Memcheck.tool ~img:mcf ~chaos:None (),
      run_one ~cores:2 ~tool:Tools.Memcheck.tool ~img:mcf
        ~chaos:(Some (Chaos.create (Chaos.idempotent ~seed)))
        () )
  with
  | Error e, _ -> fail cell ("baseline raised " ^ e)
  | _, Error e -> fail cell ("idempotent cores=2 raised " ^ e)
  | Ok base, Ok idem ->
      expect_eq cell "single-thread cores=2 exit" base.o_exit idem.o_exit;
      expect_eq cell "single-thread cores=2 stdout" base.o_stdout idem.o_stdout;
      expect_eq cell "single-thread cores=2 tool output" base.o_tool idem.o_tool;
      Fmt.pr "%s ok (single-threaded invariant under 2 cores)@." cell

let run_sweep (seeds : int list) : bool =
  Fmt.pr "== vgchaos: fault-injection sweep, seeds %s ==@."
    (String.concat "," (List.map string_of_int seeds));
  let imgs = images () in
  List.iter
    (fun seed ->
      List.iter
        (fun (wname, img) ->
          List.iter
            (fun (tname, tool) ->
              let cell = Printf.sprintf "%-8s %-16s seed %d" wname tname seed in
              run_cell ~cell ~tool ~img ~seed)
            Tools.Table.sweep)
        imgs;
      match List.assoc_opt "mcf" imgs with
      | Some mcf -> run_sharded_cells ~seed ~mcf
      | None -> ())
    seeds;
  (* always leave one exemplar structured trace behind (a Chrome-loadable
     record of a full fault schedule), even when every cell passes *)
  (match (List.assoc_opt "mcf" imgs, seeds) with
  | Some img, seed :: _ ->
      Fmt.pr "exemplar trace: mcf under memcheck, hostile schedule@.";
      ignore
        (run_one
           ~trace_to:(Filename.concat trace_dir "exemplar-hostile")
           ~tool:Tools.Memcheck.tool ~img
           ~chaos:(Some (Chaos.create (Chaos.hostile ~seed)))
           ())
  | _ -> ());
  !failures = 0

(* ------------------------------------------------------------------ *)
(* Single-cell mode (--seed): show the fault schedule                   *)
(* ------------------------------------------------------------------ *)

let run_single ~seed ~schedule ~tname ~wname ~cores ~trace_to : bool =
  let tool =
    match List.assoc_opt tname Tools.Table.sweep with
    | Some t -> t
    | None -> failwith ("unknown tool " ^ tname)
  in
  let img =
    match List.assoc_opt wname (images ()) with
    | Some i -> i
    | None -> failwith ("unknown workload " ^ wname)
  in
  let cfg =
    match schedule with
    | "idempotent" -> Chaos.idempotent ~seed
    | "hostile" -> Chaos.hostile ~seed
    | "sharded" -> Chaos.sharded ~seed
    | s -> failwith ("unknown schedule " ^ s ^ " (idempotent|hostile|sharded)")
  in
  let c = Chaos.create cfg in
  Fmt.pr "== vgchaos: %s under %s, %s schedule, seed %d, %d cores ==@." wname
    tname schedule seed cores;
  match run_one ?trace_to ~cores ~tool ~img ~chaos:(Some c) () with
  | Error e ->
      Fmt.pr "UNCAUGHT EXCEPTION: %s@." e;
      false
  | Ok o ->
      List.iter (Fmt.pr "%s@.") o.o_log;
      Fmt.pr "%s@." (Chaos.summary c);
      Fmt.pr "%s; %s@." o.o_exit o.o_digest;
      true

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let rec flag name = function
    | [] -> None
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag name rest
  in
  let sweep_mode = List.mem "sweep" argv || flag "--seed" argv = None in
  let ok =
    if sweep_mode then
      let seeds =
        match flag "--seeds" argv with
        | None -> [ 1; 2; 3 ]
        | Some s -> List.map int_of_string (String.split_on_char ',' s)
      in
      run_sweep seeds
    else
      let seed = int_of_string (Option.get (flag "--seed" argv)) in
      let schedule =
        Option.value (flag "--schedule" argv) ~default:"idempotent"
      in
      let tname = Option.value (flag "--tool" argv) ~default:"memcheck" in
      let wname = Option.value (flag "--workload" argv) ~default:"mcf" in
      let cores =
        match flag "--cores" argv with None -> 1 | Some n -> int_of_string n
      in
      run_single ~seed ~schedule ~tname ~wname ~cores
        ~trace_to:(flag "--trace" argv)
  in
  if not ok then begin
    prerr_endline "vgchaos: FAILED";
    exit 1
  end;
  print_endline "vgchaos: all schedules survived and replayed exactly"
