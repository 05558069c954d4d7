(** The two-clock benchmark: host wall time and the VH64 cycle model,
    end to end and layer by layer, on four workloads.  See README.md
    for why each workload exists and which metric each layer moves.

    Usage:
    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    With [--trace 0] it prints the end-to-end metrics; with [--trace 1]
    it runs every unit of work twice, untraced and traced, checks the
    two bit-identical, and prints the per-layer metrics.  The last line
    of standard output is one JSON object:
    [{"correct": .., "attempted": .., "failed": .., "metrics": {..}}]. *)

module S = Vg_core.Session

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(** One session's input.  [j_build] is the input-building step
    (mini-C compile, assembler, generator), timed as set-up. *)
type job = {
  j_name : string;
  j_build : unit -> Guest.Image.t;
  j_tool : Vg_core.Tool.t;
  j_options : S.options;
  j_files : string list;  (** client output files checked against native *)
}

type workload = {
  w_unit : int -> job list;  (** the sessions of unit [i] *)
  w_min_units : int;
      (** untraced units always run: counted exactly, and the peak heap
          is read after them *)
  w_trace_units : int;  (** traced units always run (and counted exactly) *)
  w_fixed : bool;  (** run exactly that many units, whatever the time *)
  w_native_ns : float;
      (** ns per guest instruction of [Native.run] on this workload's
          programs, on the host the benchmark was written on (a 2-vCPU
          VM at 2.1 GHz); [setup_s] is scaled to it *)
}

(* Fuel, so that a livelocked client fails its session instead of
   hanging the benchmark.  No workload comes near it. *)
let session_options = { S.default_options with max_blocks = 20_000_000L }
let native_fuel = 400_000_000L

(* Graph relaxation, FP ray-sphere intersection, and pointer chasing
   with heap churn.  Together they make about 220 translations a pass,
   so the JIT and verifier take only about 3% of it.  They are the shortest programs of their
   kinds under memcheck (0.7-3.1 s), so a 30 s run holds five or six
   passes, and each program's wall slow-down is a median over as many
   sessions. *)
let hot_programs = [ "mcf"; "eon"; "gcc" ]

(* The inputs of a hot pass are the same on every seed: the hot
   workloads measure steady state.  At least three passes run, so each
   program's wall slow-down is a median of at least three pairs. *)
let hot tool ~seed:_ =
  let programs =
    List.map
      (fun p ->
        match Workloads.find p with
        | Some w -> w
        | None -> failwith ("unknown SPEC-like program " ^ p))
      hot_programs
  in
  let jobs =
    List.map
      (fun (w : Workloads.workload) ->
        { j_name = w.w_name; j_build = (fun () -> Workloads.compile w);
          j_tool = tool; j_options = session_options; j_files = [] })
      programs
  in
  { w_unit = (fun _ -> jobs); w_min_units = 3; w_trace_units = 1;
    w_fixed = false; w_native_ns = 110.0 }

let cold_sessions_per_unit = 20

(* A stream of distinct generated programs, each in a fresh memcheck
   session, so every block is translated once and run a few times. *)
let cold_start ~seed =
  let unit_ u =
    List.init cold_sessions_per_unit (fun i ->
        let st = Random.State.make [| seed; u; i |] in
        let gseed = Random.State.int st 1_000_000_000 in
        let size = 48 + Random.State.int st 25 in
        { j_name = Fuzz.Gen.name ~seed:gseed ~size;
          j_build = (fun () -> Fuzz.Gen.image ~faulty:false ~seed:gseed ~size ());
          j_tool = Tools.Memcheck.tool; j_options = session_options;
          j_files = [] })
  in
  (* 10 units = 200 sessions, so that 10 samples lie beyond the p95.
     The count is fixed rather than timed: every memcheck session stays
     reachable from the process-global helper registry
     (Vex_ir.Helpers never drops an entry), so the heap grows with each
     session run, and a timed run this long would need gigabytes. *)
  { w_unit = unit_; w_min_units = 10; w_trace_units = 3; w_fixed = true;
    w_native_ns = 2500.0 }

let threads_files = [ "t0.out"; "t1.out"; "t2.out"; "t3.out" ]

let threads_io ~seed =
  let st = Random.State.make [| seed |] in
  let iters = List.init 4 (fun _ -> 3_500 + Random.State.int st 500) in
  let source =
    List.fold_left
      (fun (k, src) n ->
        ( k + 1,
          Str.global_replace
            (Str.regexp_string (Printf.sprintf "ITERS_%d" k))
            (string_of_int n) src ))
      (0, Threads_io_src.source) iters
    |> snd
  in
  let job =
    { j_name = "threads-io"; j_build = (fun () -> Minicc.Driver.compile source);
      j_tool = Vg_core.Tool.nulgrind;
      j_options = { session_options with cores = 4 };
      j_files = threads_files }
  in
  { w_unit = (fun _ -> [ job ]); w_min_units = 3; w_trace_units = 1;
    w_fixed = false; w_native_ns = 150.0 }

let workloads =
  [ ("hot-nulgrind", hot Vg_core.Tool.nulgrind);
    ("hot-memcheck", hot Tools.Memcheck.tool);
    ("cold-start", cold_start); ("threads-io", threads_io) ]

(* ------------------------------------------------------------------ *)
(* The correctness oracle: the native reference interpreter             *)
(* ------------------------------------------------------------------ *)

(** What a run of the image must produce: exit status, client stdout
    and the client's output files. *)
type observed = { o_exit : string; o_stdout : string; o_files : string list }

type reference = {
  r_obs : observed;
  r_insns : int64;
  r_cycles : int64;
  r_ns : int;  (** wall time, from Native.create to the return of Native.run *)
  r_run_ns : int;  (** wall time of Native.run alone *)
}

let files_of kern names =
  List.map
    (fun n -> Option.value (Kernel.file_contents kern n) ~default:"<missing>")
    names

(* The native run is repeated, and timed, for every session: the
   session's wall time is reported as a ratio to it (see [end_to_end]). *)
let reference (j : job) (img : Guest.Image.t) : reference =
  let t0 = Spans.now () in
  let n = Native.create img in
  let t1 = Spans.now () in
  let reason = Native.run ~max_insns:native_fuel n in
  let t2 = Spans.now () in
  let exit =
    match reason with
    | Native.Exited c -> Printf.sprintf "exit %d" c
    | Native.Fatal_signal sg -> Printf.sprintf "signal %d" sg
    | Native.Out_of_fuel -> "out of fuel"
  in
  { r_obs =
      { o_exit = exit; o_stdout = Native.stdout_contents n;
        o_files = files_of n.Native.kern j.j_files };
    r_insns = Native.total_insns n; r_cycles = Native.total_cycles n;
    r_ns = t2 - t0; r_run_ns = t2 - t1 }

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

type session_result = {
  job : string;  (** the job's name *)
  build_ns : int;
  setup_ns : int;  (** Session.create + Session.ensure_started *)
  session_ns : int;  (** Session.create to the return of Session.run *)
  why : string;  (** "" when the session matched the reference *)
  digest : string;  (** outputs + every registry count, for bit-identity *)
  stats : S.stats option;
  handoffs : int;  (** thread switches, summed over the cores *)
  native : reference;
  gc_minor_words : float;
  gc_major : int;
}

type tracing = {
  probe : Traced.probe;
  exec_blocks : int ref;
  exec_insns : int ref;
  poll : unit -> unit;
}

let exit_string = function
  | S.Exited c -> Printf.sprintf "exit %d" c
  | S.Fatal_signal sg -> Printf.sprintf "signal %d" sg
  | S.Out_of_fuel -> "out of fuel"

(* Run one job: build its input, check it against the native reference,
   and return the session too (the traced run re-translates its
   resident code afterwards).  Any exception, out-of-fuel exit or
   mismatch fails the session. *)
let run_job ?tracing (j : job) : session_result * S.t option =
  let sp = Option.map (fun t -> t.probe.Traced.sp) tracing in
  let t0 = Spans.now () in
  Option.iter Spans.enter sp;
  let img = j.j_build () in
  Option.iter (fun sp -> Spans.leave sp Spans.input) sp;
  let t1 = Spans.now () in
  (* The traced run reads GC pauses from Runtime_events; the native
     run's are not the session's, and unpolled they overflow the ring. *)
  if tracing <> None then Runtime_events.pause ();
  let native = reference j img in
  if tracing <> None then Runtime_events.resume ();
  let tool =
    match tracing with
    | Some t -> Traced.wrap_tool t.probe j.j_tool
    | None -> j.j_tool
  in
  let gc0 = Gc.quick_stat () in
  let s0 = Spans.now () in
  let outcome =
    match
      Option.iter Spans.enter sp;
      let s = S.create ~options:j.j_options ~tool img in
      S.ensure_started s;
      Option.iter (fun sp -> Spans.leave sp Spans.create) sp;
      let s1 = Spans.now () in
      let reason =
        match tracing with
        | Some t ->
            Traced.run_steps t.probe s ~exec_blocks:t.exec_blocks
              ~exec_insns:t.exec_insns ~poll:t.poll
        | None -> S.run s
      in
      (s, s1, reason)
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let s2 = Spans.now () in
  let gc1 = Gc.quick_stat () in
  let r =
    { job = j.j_name; build_ns = t1 - t0; setup_ns = s2 - s0;
      session_ns = s2 - s0; why = ""; digest = ""; stats = None; handoffs = 0;
      native;
      gc_minor_words = gc1.minor_words -. gc0.minor_words;
      gc_major = gc1.major_collections - gc0.major_collections }
  in
  match outcome with
  | Error e ->
      Option.iter (fun sp -> Spans.unwind sp ~depth:0 Spans.create) sp;
      ({ r with why = "exception: " ^ e }, None)
  | Ok (s, s1, reason) ->
      let obs =
        { o_exit = exit_string reason; o_stdout = S.client_stdout s;
          o_files = files_of s.S.kern j.j_files }
      in
      let why =
        if reason = S.Out_of_fuel then "out of fuel"
        else if obs.o_exit <> native.r_obs.o_exit then
          Printf.sprintf "%s, native %s" obs.o_exit native.r_obs.o_exit
        else if obs.o_stdout <> native.r_obs.o_stdout then "stdout differs"
        else if obs.o_files <> native.r_obs.o_files then "output files differ"
        else ""
      in
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat "\000"
                ([ obs.o_exit; obs.o_stdout; S.tool_output s; S.stats_json s ]
                @ obs.o_files)))
      in
      ( { r with setup_ns = s1 - s0; why; digest; stats = Some (S.stats s);
          handoffs = Traced.handoffs s },
        Some s )

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float (List.length xs))

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let ms ns = float ns /. 1e6
let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally = { attempted = 0; failed = 0; notes = [] }

let note fmt =
  Printf.ksprintf
    (fun m -> if List.length tally.notes < 20 then tally.notes <- m :: tally.notes)
    fmt

(* A job's deterministic outputs must repeat exactly whenever it runs
   again in this process, traced or not. *)
let digests : (string, string) Hashtbl.t = Hashtbl.create 16

let count (j : job) (r : session_result) =
  tally.attempted <- tally.attempted + 1;
  let why =
    if r.why <> "" then r.why
    else
      match Hashtbl.find_opt digests j.j_name with
      | Some d when d <> r.digest -> "outputs or counts differ from an earlier run"
      | Some _ -> ""
      | None ->
          Hashtbl.replace digests j.j_name r.digest;
          ""
  in
  if why <> "" then begin
    tally.failed <- tally.failed + 1;
    note "%s: %s" j.j_name why
  end

let insns (r : session_result) = Int64.to_float r.native.r_insns

(* Run units until the deadline has passed and at least [min_units]
   ran (exactly [min_units] when [fixed]).  [f] runs one unit. *)
let run_units ~seconds ~min_units ~fixed (f : int -> 'a) : 'a list =
  let deadline = Spans.now () + (seconds * 1_000_000_000) in
  let rec go u acc =
    if u >= min_units && (fixed || Spans.now () >= deadline) then List.rev acc
    else go (u + 1) (f u :: acc)
  in
  go 0 []

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* The end-to-end metrics, from untraced runs only. *)
let end_to_end (w : workload) ~seconds : metric list =
  (* The peak heap is read after the units that always run, so that it
     measures a fixed amount of work: memcheck sessions leak (see
     cold-start), and a faster program would otherwise fit more passes
     into the run and show a larger heap. *)
  let top_heap = ref 0 in
  let units =
    run_units ~seconds ~min_units:w.w_min_units ~fixed:w.w_fixed (fun u ->
        let rs =
          List.map
            (fun j ->
              let r, _ = run_job j in
              count j r;
              r)
            (w.w_unit u)
        in
        if u = w.w_min_units - 1 then top_heap := (Gc.quick_stat ()).top_heap_words;
        rs)
  in
  (* Set-up is short: repeat it until there are ten samples.  It has no
     native pair, so it is scaled by the host's speed instead: the native
     interpreter's ns per guest instruction over the run, against
     [w_native_ns].  Two sets of ten runs read raw set-up medians
     33-35% apart, and wall slow-downs only 0-4% apart. *)
  let setups =
    List.map (fun rs -> sum (fun r -> float (r.build_ns + r.setup_ns)) rs) units
  in
  let extra =
    List.init
      (max 0 (10 - List.length units))
      (fun i ->
        sum
          (fun j ->
            let t0 = Spans.now () in
            let s = S.create ~options:j.j_options ~tool:j.j_tool (j.j_build ()) in
            S.ensure_started s;
            float (Spans.now () - t0))
          (w.w_unit i))
  in
  let sessions = List.concat units in
  let counted = List.concat (List.filteri (fun i _ -> i < w.w_min_units) units) in
  let slowdowns =
    List.filter_map
      (fun r ->
        Option.map
          (fun (st : S.stats) ->
            Int64.to_float st.st_total_cycles /. Int64.to_float r.native.r_cycles)
          r.stats)
      counted
  in
  (* The wall slow-down of each program: the median over its sessions
     of the session's wall time over that of the native run of the same
     image just before it.  The host's speed changes in phases of
     seconds to minutes, by up to 1.5x, and a raw time measures them as
     much as the program; the two runs of a pair mostly share a phase,
     so their ratio cancels it, and the median drops the pairs that
     straddle a change.  Repeats of a program measure one sample, so the
     percentiles are over programs, like Table 2's. *)
  let slowdowns_wall =
    List.sort_uniq compare (List.map (fun r -> r.job) sessions)
    |> List.map (fun name ->
           List.filter (fun r -> r.job = name) sessions
           |> List.map (fun r -> float r.session_ns /. float r.native.r_ns)
           |> median)
  in
  let native_ns = sum (fun r -> float r.native.r_run_ns) sessions /. sum insns sessions in
  Printf.printf
    "raw wall: %.2f ns per guest insn under the tool, %.2f native (run alone); \
     set-up %.6f s\n"
    (sum (fun r -> float r.session_ns) sessions /. sum insns sessions)
    native_ns (median (setups @ extra) /. 1e9);
  [ m "wall_slowdown" "x" (geomean slowdowns_wall);
    m "wall_slowdown_p50" "x" (percentile 0.50 slowdowns_wall);
    m "wall_slowdown_p95" "x" (percentile 0.95 slowdowns_wall);
    m "model_slowdown" "x" (if slowdowns = [] then nan else geomean slowdowns);
    m "setup_s" "s" (median (setups @ extra) /. 1e9 *. w.w_native_ns /. native_ns);
    m "peak_heap_mb" "MB" (float (!top_heap * (Sys.word_size / 8)) /. 1e6);
    m "pass_rate" "frac"
      (fdiv (float (tally.attempted - tally.failed)) (float tally.attempted)) ]

(* One traced unit: every job untraced, then traced, then its resident
   code re-translated with the phases timed. *)
type traced_unit = {
  tu_plain : session_result list;
  tu_traced : session_result list;
  tu_spans : Spans.snap;
  tu_jit : Traced.jit_times;
  tu_helpers : int;
  tu_ir : int * int;
  tu_syscalls : int;
  tu_exec_blocks : int;
  tu_exec_insns : int;
  tu_gc_pause_ns : int;
}

let per_layer (w : workload) ~seconds ~spans_file : metric list =
  let probe = Traced.create_probe () in
  let gc, poll = Traced.start_gc_events () in
  let exec_blocks = ref 0 and exec_insns = ref 0 in
  let tracing = { probe; exec_blocks; exec_insns; poll } in
  let units =
    run_units ~seconds ~min_units:w.w_trace_units ~fixed:w.w_fixed (fun u ->
        let sp0 = Spans.snap probe.sp in
        let h0 = probe.helper_calls and i0 = probe.ir_pre and o0 = probe.ir_post in
        let k0 = probe.syscalls and e0 = !exec_blocks and x0 = !exec_insns in
        let g0 = gc.pause_ns in
        let jit = Traced.create_jit_times () in
        let pairs =
          List.mapi
            (fun i j ->
              let plain, _ = run_job j in
              count j plain;
              probe.sp.session <- (u * 1000) + i;
              Runtime_events.resume ();
              let traced, s = run_job ~tracing j in
              poll ();
              Runtime_events.pause ();
              count j traced;
              Option.iter (Traced.retranslate probe jit) s;
              (plain, traced))
            (w.w_unit u)
        in
        { tu_plain = List.map fst pairs; tu_traced = List.map snd pairs;
          tu_spans = Spans.diff sp0 (Spans.snap probe.sp); tu_jit = jit;
          tu_helpers = probe.helper_calls - h0;
          tu_ir = (probe.ir_pre - i0, probe.ir_post - o0);
          tu_syscalls = probe.syscalls - k0; tu_exec_blocks = !exec_blocks - e0;
          tu_exec_insns = !exec_insns - x0;
          tu_gc_pause_ns = gc.pause_ns - g0 })
  in
  if gc.lost > 0 then note "runtime events lost: %d" gc.lost;
  Option.iter (Spans.write probe.sp) spans_file;
  (* Counts come from the first [w_trace_units] units only, so they
     repeat exactly; times are means over every unit that ran. *)
  let counted = List.filteri (fun i _ -> i < w.w_trace_units) units in
  let mean_over us f =
    sum f us /. float (List.length us)
  in
  let time f = mean_over units f and cnt f = mean_over counted f in
  let stat f tu =
    sum (fun r -> match r.stats with Some st -> f st | None -> 0.0) tu.tu_plain
  in
  let ginsns tu = sum insns tu.tu_plain in
  let span_ms field k tu = ms (field tu.tu_spans).(k) in
  let total = span_ms (fun s -> s.Spans.s_total)
  and self = span_ms (fun s -> s.Spans.s_self) in
  let plain_ms tu = sum (fun r -> ms r.session_ns) tu.tu_plain in
  let traced_ms tu = sum (fun r -> ms r.session_ns) tu.tu_traced in
  let phase i tu = ms tu.tu_jit.phase_ns.(i) in
  let phase_names =
    [| "disasm"; "opt1"; "instrument"; "opt2"; "treebuild"; "isel"; "regalloc";
       "assembly" |]
  in
  let i64 f st = Int64.to_float (f st) and int f st = float (f st) in
  [ m "input.build_ms" "ms" (time (total Spans.input));
    m "session.create_ms" "ms" (time (total Spans.create)) ]
  @ List.init 8 (fun i ->
        m (Printf.sprintf "jit.p%d_%s_ms" (i + 1) phase_names.(i)) "ms"
          (time (phase i)))
  @ [ m "jit.translations" "count"
        (cnt (stat (int (fun st -> st.S.st_translations))));
      m "jit.promotions" "count" (cnt (stat (int (fun st -> st.S.st_promotions))));
      m "jit.us_per_translation" "us"
        (time (fun tu ->
             fdiv (float tu.tu_jit.total_ns /. 1e3) (float tu.tu_jit.translations)));
      m "jit.step_ms" "ms" (time (total Spans.step_jit));
      m "jit.wall_frac" "frac"
        (time (fun tu ->
             fdiv
               (ms (Array.fold_left ( + ) tu.tu_jit.verify_ns tu.tu_jit.phase_ns))
               (plain_ms tu)));
      m "verify.ms" "ms" (time (fun tu -> ms tu.tu_jit.verify_ns));
      m "verify.checks" "count"
        (cnt (stat (int (fun st -> st.S.st_verify_checks))));
      m "exec.ns_per_block" "ns"
        (time (fun tu ->
             fdiv (self Spans.step_exec tu *. 1e6) (float tu.tu_exec_blocks)));
      m "host.insns_per_guest_insn" "ratio"
        (cnt (fun tu -> fdiv (stat (i64 (fun st -> st.S.st_host_insns)) tu) (ginsns tu)));
      m "host.ns_per_host_insn" "ns"
        (time (fun tu ->
             fdiv (self Spans.step_exec tu *. 1e6) (float tu.tu_exec_insns)));
      m "dispatch.hit_rate" "frac"
        (cnt (fun tu ->
             fdiv
               (stat (i64 (fun st -> st.S.st_dispatch_hits)) tu)
               (stat (i64 (fun st -> st.S.st_dispatch_entries)) tu)));
      m "core.chained_frac" "frac"
        (cnt (fun tu ->
             fdiv
               (stat (i64 (fun st -> st.S.st_chained)) tu)
               (stat (i64 (fun st -> st.S.st_blocks)) tu)));
      m "tool.helper_calls_per_guest_insn" "ratio"
        (cnt (fun tu -> fdiv (float tu.tu_helpers) (ginsns tu)));
      m "tool.helper_ms" "ms" (time (total Spans.helper));
      m "tool.instrument_ms" "ms" (time (total Spans.instrument));
      m "tool.ir_growth" "ratio"
        (cnt (fun tu -> fdiv (float (snd tu.tu_ir)) (float (fst tu.tu_ir))));
      m "sched.switch_steps" "count"
        (cnt (fun tu -> float tu.tu_spans.s_count.(Spans.step_switch)));
      m "sched.switch_ms" "ms" (time (self Spans.step_switch));
      m "sched.handoffs" "count"
        (cnt (fun tu -> sum (fun r -> float r.handoffs) tu.tu_plain));
      m "kernel.syscalls" "count" (cnt (fun tu -> float tu.tu_syscalls));
      m "kernel.ms" "ms" (time (total Spans.syscall));
      m "gc.minor_words_per_guest_insn" "words"
        (cnt (fun tu -> fdiv (sum (fun r -> r.gc_minor_words) tu.tu_plain) (ginsns tu)));
      m "gc.major_collections" "count"
        (cnt (fun tu -> sum (fun r -> float r.gc_major) tu.tu_plain));
      m "gc.pause_ms" "ms" (time (fun tu -> ms tu.tu_gc_pause_ns));
      m "trace.overhead_frac" "frac"
        (time (fun tu -> fdiv (traced_ms tu) (plain_ms tu) -. 1.0)) ]
  @
  (* raw wall times of the untraced sessions and their native runs *)
  let plain = List.concat_map (fun tu -> tu.tu_plain) units in
  let session_ms = List.map (fun r -> ms r.session_ns) plain in
  [ m "session.ns_per_guest_insn" "ns"
      (sum (fun r -> float r.session_ns) plain /. sum insns plain);
    m "session.ms_p50" "ms" (percentile 0.50 session_ms);
    m "session.ms_p95" "ms" (percentile 0.95 session_ms);
    m "native.ns_per_guest_insn" "ns"
      (sum (fun r -> float r.native.r_ns) plain /. sum insns plain) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans_file = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans_file, "FILE write the traced run's spans") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w ~seed:!seed
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let metrics =
    if !trace = 0 then end_to_end w ~seconds:!seconds
    else
      per_layer w ~seconds:!seconds
        ~spans_file:(if !spans_file = "" then None else Some !spans_file)
  in
  let finite = List.for_all (fun x -> Float.is_finite x.m_value) metrics in
  if not finite then note "a metric is not a finite number";
  let correct = tally.failed = 0 && tally.notes = [] && tally.attempted > 0 in
  List.iter (fun n -> Printf.printf "FAIL %s\n" n) (List.rev tally.notes);
  List.iter
    (fun x -> Printf.printf "%-36s %16.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
              (if Float.is_finite x.m_value then Printf.sprintf "%.17g" x.m_value
               else "0")
              x.m_unit)
          metrics))
