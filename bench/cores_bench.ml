(** Multi-core scheduling benchmark: the cores matrix behind the
    [cores-matrix] CI job.

    The sharded scheduler interleaves simulated cores on cycle counts
    (lowest clock steps next, ties to the lowest core id), so execution
    is bit-identical for any [--cores N] — a single-threaded client only
    ever touches core 0, and a threaded client replays exactly at a
    fixed core count.  [check] enforces both halves of that contract
    across the full tool corpus at 1/2/4 cores, plus the point of the
    whole refactor: a 4-thread workload's wall clock (max core clock)
    must actually drop when given 4 cores.

    [metrics] feeds the deterministic cycle numbers into the same flat
    JSON the chaining gate uses ({!Chain_bench.write_json}), so the
    committed baseline also pins the cores=1 scheduler overhead and the
    4-core wall-cycle win. *)

let core_counts = [ 1; 2; 4 ]

(* Main spawns three compute-bound workers (threads 2..4 land on cores
   1..3 under --cores 4), runs its own compute loop, then spin-waits on
   the workers' done counter.  Also committed as bench/threads4.s for
   the driver-level --stats=json golden diff in CI. *)
let threads4_src =
  {|
        .text
        .global _start
_start: movi r7, 0            ; worker index 0..2
spawn:  movi r1, worker
        movi r2, stacks
        mov r3, r7
        inc r3
        muli r3, 4096
        add r2, r3
        subi r2, 4
        movi r3, 0
        movi r0, 15           ; thread_create
        syscall
        inc r7
        cmpi r7, 3
        jne spawn
        movi r5, 3000
mloop:  dec r5
        jne mloop
mwait:  movi r0, 17           ; yield
        syscall
        movi r3, ndone
        ldw r4, [r3]
        cmpi r4, 3
        jne mwait
        movi r0, 1
        movi r1, 0
        syscall
worker: movi r5, 3000
wloop:  dec r5
        jne wloop
        movi r3, ndone
        ldw r4, [r3]
        inc r4
        stw [r3], r4
        movi r0, 16           ; thread_exit
        syscall
        .data
ndone:  .word 0
        .align 4
stacks: .space 12288
|}

let threads4_img () = Guest.Asm.assemble threads4_src

let run_at ~(cores : int) (tool : Vg_core.Tool.t) (img : Guest.Image.t) :
    Harness.tool_result =
  Harness.run_tool
    ~options:{ Vg_core.Session.default_options with cores }
    tool img

(* ------------------------------------------------------------------ *)
(* The human-readable cores matrix (what CI posts to the step summary)  *)
(* ------------------------------------------------------------------ *)

let run () =
  Harness.section
    "Sharded scheduler: 4-thread workload, wall cycles by core count";
  Printf.printf "%-6s %13s %13s %9s %8s %6s\n" "cores" "wall" "total(work)"
    "handoffs" "speedup" "out=";
  Harness.hr ();
  let img = threads4_img () in
  let base = run_at ~cores:1 Vg_core.Tool.nulgrind img in
  List.iter
    (fun cores ->
      let r = run_at ~cores Vg_core.Tool.nulgrind img in
      Printf.printf "%-6d %13Ld %13Ld %9Ld %7.2fx %6b\n%!" cores
        r.tr_stats.st_wall_cycles r.tr_stats.st_total_cycles
        r.tr_stats.st_lock_handoffs
        (Int64.to_float base.tr_stats.st_wall_cycles
        /. Int64.to_float r.tr_stats.st_wall_cycles)
        (r.tr_stdout = base.tr_stdout))
    core_counts;
  Harness.hr ();
  print_endline
    "(wall = max core clock; total = aggregate work cycles across cores)"

(* ------------------------------------------------------------------ *)
(* Metrics for the flat JSON gate file                                  *)
(* ------------------------------------------------------------------ *)

(* "cycles_" prefixed keys get the gate's 10% regression tolerance; the
   cores=1 row doubles as the scheduler-overhead pin demanded by the
   sharded-scheduler acceptance bar. *)
let metrics () : (string * int64) list =
  let img = threads4_img () in
  let runs =
    List.map (fun c -> (c, run_at ~cores:c Vg_core.Tool.nulgrind img)) core_counts
  in
  let base = List.assoc 1 runs in
  List.concat_map
    (fun (c, r) ->
      [
        (Printf.sprintf "threads4.cycles_wall_c%d" c, r.Harness.tr_stats.st_wall_cycles);
        (Printf.sprintf "threads4.cycles_work_c%d" c, r.tr_stats.st_total_cycles);
        (Printf.sprintf "threads4.handoffs_c%d" c, r.tr_stats.st_lock_handoffs);
      ])
    runs
  @ [
      ( "threads4.cycles_sched_overhead_c1",
        base.Harness.tr_stats.st_overhead_cycles );
      ( "threads4.cores_outputs_equal",
        if
          List.for_all
            (fun (_, r) -> r.Harness.tr_stdout = base.Harness.tr_stdout)
            runs
        then 1L
        else 0L );
    ]

(* ------------------------------------------------------------------ *)
(* The corpus matrix gate                                               *)
(* ------------------------------------------------------------------ *)

(* Transparency across core counts: for every tool, client stdout, exit
   reason and the full tool output (event totals included) must be
   bit-identical at 1, 2 and 4 cores — on a single-threaded corpus
   workload (which must not even notice the extra cores) and on the
   4-thread workload (where scheduling genuinely spreads across cores
   but cycle-count interleaving keeps it deterministic). *)
let check () =
  let failures = ref 0 in
  let matrix (wname : string) (img : Guest.Image.t) =
    List.iter
      (fun (tname, tool) ->
        let base = run_at ~cores:1 tool img in
        let base_tool_out =
          Vg_core.Session.tool_output base.Harness.tr_session
        in
        List.iter
          (fun cores ->
            let r = run_at ~cores tool img in
            let bad fmt =
              incr failures;
              Printf.printf "!! %s/%s cores=%d: %s\n" wname tname cores fmt
            in
            if r.Harness.tr_stdout <> base.Harness.tr_stdout then
              bad "client stdout diverged from cores=1";
            if
              Vg_core.Session.tool_output r.Harness.tr_session
              <> base_tool_out
            then bad "tool output diverged from cores=1")
          (List.filter (fun c -> c <> 1) core_counts))
      Tools.Table.sweep;
    Printf.printf "ok %s: %d tools bit-identical at cores %s\n%!" wname
      (List.length Tools.Table.sweep)
      (String.concat "/" (List.map string_of_int core_counts))
  in
  (match Workloads.find "mcf" with
  | Some w -> matrix "mcf" (Workloads.compile ~scale:1 w)
  | None ->
      incr failures;
      print_endline "!! corpus workload mcf missing");
  let img = threads4_img () in
  matrix "threads4" img;
  (* the speedup itself: 4 cores must beat 1 core on the wall clock by
     at least 2x for a 4-thread compute-bound workload *)
  let w1 = (run_at ~cores:1 Vg_core.Tool.nulgrind img).Harness.tr_stats in
  let w4 = (run_at ~cores:4 Vg_core.Tool.nulgrind img).Harness.tr_stats in
  if
    Int64.unsigned_compare (Int64.mul w4.st_wall_cycles 2L) w1.st_wall_cycles
    >= 0
  then begin
    incr failures;
    Printf.printf "!! 4-core wall %Ld not 2x under 1-core wall %Ld\n"
      w4.st_wall_cycles w1.st_wall_cycles
  end
  else
    Printf.printf "ok threads4 wall cycles: %Ld @1 core -> %Ld @4 cores\n"
      w1.st_wall_cycles w4.st_wall_cycles;
  if !failures > 0 then begin
    Printf.printf "cores gate FAILED: %d problem(s)\n" !failures;
    exit 1
  end
  else print_endline "cores gate passed"
