(** The traced run's probes.  Everything here times calls into the
    library's public functions; nothing inside the library changes, and
    no probe feeds back into guest execution, so a traced session's
    outputs and cycle counts are those of an untraced one. *)

module S = Vg_core.Session
module P = Jit.Pipeline

type probe = {
  sp : Spans.t;
  mutable on : bool;  (** off during the re-translation pass *)
  mutable helper_calls : int;
  mutable ir_pre : int;  (** IR statements handed to the tool *)
  mutable ir_post : int;  (** IR statements the tool handed back *)
  mutable syscalls : int;
}

let create_probe () =
  { sp = Spans.create_recorder (); on = true; helper_calls = 0; ir_pre = 0;
    ir_post = 0; syscalls = 0 }

let r0 = Guest.Arch.off_reg 0

(** [tool] with its helpers, its instrumentation function and the
    system calls it sees timed.  Helper costs in the cycle model pass
    through unchanged; the syscall hooks are chained after the tool's
    own. *)
let wrap_tool (p : probe) (tool : Vg_core.Tool.t) : Vg_core.Tool.t =
  let create (caps : Vg_core.Tool.caps) =
    let register_helper ?fx_reads ~name ~cost ~nargs f =
      caps.register_helper ?fx_reads ~name ~cost ~nargs (fun args ->
          p.helper_calls <- p.helper_calls + 1;
          Spans.enter p.sp;
          match f args with
          | v ->
              Spans.leave p.sp Spans.helper;
              v
          | exception e ->
              Spans.leave p.sp Spans.helper;
              raise e)
    in
    let inst = tool.create { caps with register_helper } in
    let ev = caps.events in
    let pre = ev.pre_reg_read and post = ev.post_reg_write in
    ev.pre_reg_read <-
      Some
        (fun ~syscall ~off ~size ->
          if off = r0 then begin
            p.syscalls <- p.syscalls + 1;
            Spans.enter p.sp
          end;
          Option.iter (fun f -> f ~syscall ~off ~size) pre);
    ev.post_reg_write <-
      Some
        (fun ~syscall ~off ~size ->
          Option.iter (fun f -> f ~syscall ~off ~size) post;
          if off = r0 then Spans.leave p.sp Spans.syscall);
    let instrument b =
      if not p.on then inst.instrument b
      else begin
        p.ir_pre <- p.ir_pre + Support.Vec.length b.Vex_ir.Ir.stmts;
        Spans.enter p.sp;
        let b' = inst.instrument b in
        Spans.leave p.sp Spans.instrument;
        p.ir_post <- p.ir_post + Support.Vec.length b'.Vex_ir.Ir.stmts;
        b'
      end
    in
    { inst with instrument }
  in
  { tool with create }

let sum_cores f (s : S.t) = Array.fold_left (fun a e -> a + f e) 0 s.S.cores
let handoffs = sum_cores (fun e -> Int64.to_int e.Vg_core.Engine.handoffs)
let host_insns = sum_cores (fun e -> Int64.to_int e.Vg_core.Engine.cpu.insns)

(** Run a session to its end one scheduler step at a time, each step a
    span classified afterwards: a step that made a translation is JIT
    work; one that handed its core to another thread, or ran no block,
    is a scheduler switch; one that only ran blocks is execution.
    [exec_blocks] and [exec_insns] count the blocks and host
    instructions the execution steps ran; [poll] runs every 4096
    steps. *)
let run_steps (p : probe) (s : S.t) ~(exec_blocks : int ref)
    ~(exec_insns : int ref) ~(poll : unit -> unit) : S.exit_reason =
  let continue_ = ref true and n = ref 0 in
  while !continue_ do
    incr n;
    if !n land 4095 = 0 then poll ();
    let tr = s.S.translations_made and bl = s.S.blocks_executed in
    let ho = handoffs s and hi = host_insns s in
    let depth = p.sp.Spans.depth in
    Spans.enter p.sp;
    continue_ := S.step s;
    let kind =
      if s.S.translations_made <> tr then Spans.step_jit
      else if s.S.blocks_executed <> bl && handoffs s = ho then begin
        exec_blocks :=
          !exec_blocks + Int64.to_int (Int64.sub s.S.blocks_executed bl);
        exec_insns := !exec_insns + host_insns s - hi;
        Spans.step_exec
      end
      else Spans.step_switch
    in
    (* a syscall that ended the process leaves its span open *)
    Spans.unwind p.sp ~depth:(depth + 1) Spans.syscall;
    Spans.leave p.sp kind
  done;
  (* the session has exited: this only runs the tool's fini *)
  S.run s

(** Per-phase wall time of re-translating every resident translation,
    each at its own tier, with a time-stamping [checks] record composed
    around the verifier. *)
type jit_times = {
  phase_ns : int array;  (** eight pipeline phases *)
  mutable verify_ns : int;
  mutable translations : int;  (** entries re-translated *)
  mutable total_ns : int;
  mutable skipped : int;  (** entries whose guest code is gone *)
}

let create_jit_times () =
  { phase_ns = Array.make P.n_phases 0; verify_ns = 0; translations = 0;
    total_ns = 0; skipped = 0 }

let stamping (st : int array) : P.checks =
  let at i = st.(i) <- Spans.now () in
  {
    ck_tree = (fun _ -> at 0);
    ck_flat = (fun _ -> at 1);
    ck_instrumented = (fun ~pre:_ ~post:_ -> at 2);
    ck_opt2 = (fun ~pre:_ ~post:_ -> at 3);
    ck_treebuilt = (fun ~pre:_ ~post:_ -> at 4);
    ck_vcode = (fun _ ~n_int:_ ~n_vec:_ ~n_label:_ -> at 5);
    ck_hcode = (fun _ -> at 6);
    ck_bytes = (fun ~hcode:_ ~bytes:_ -> at 7);
  }

let retranslate (p : probe) (jt : jit_times) (s : S.t) =
  let arrive = Array.make P.n_phases 0 and depart = Array.make P.n_phases 0 in
  let checks =
    P.compose_checks
      (P.compose_checks (stamping arrive)
         (Verify.pipeline_checks ~shadow:s.S.tool.shadow_ranges ()))
      (stamping depart)
  in
  let fetch addr = Aspace.fetch_u8 s.S.mem addr in
  let instrument = S.instrument_fn s in
  let unroll = s.S.opts.unroll_loops in
  p.on <- false;
  List.iter
    (fun (e : Vg_core.Transtab.entry) ->
      let t = e.e_trans in
      let start = Spans.now () in
      match
        match t.P.t_tier with
        | P.Tier_super ->
            ignore
              (P.translate_trace ~unroll ~checks ~fetch ~instrument
                 t.P.t_constituents)
        | tier ->
            ignore
              (P.translate ~unroll ~checks ~tier ~fetch ~instrument
                 (Vg_core.Redirect.resolve s.S.redirect e.e_key))
      with
      | () ->
          let stop = Spans.now () in
          jt.phase_ns.(0) <- jt.phase_ns.(0) + arrive.(0) - start;
          for i = 1 to P.n_phases - 1 do
            jt.phase_ns.(i) <- jt.phase_ns.(i) + arrive.(i) - depart.(i - 1)
          done;
          (* decoding the assembled bytes back for execution ends phase 8 *)
          jt.phase_ns.(7) <- jt.phase_ns.(7) + stop - depart.(7);
          for i = 0 to P.n_phases - 1 do
            jt.verify_ns <- jt.verify_ns + depart.(i) - arrive.(i)
          done;
          jt.total_ns <- jt.total_ns + stop - start;
          jt.translations <- jt.translations + 1
      | exception _ ->
          (* code the guest overwrote or unmapped after translating it *)
          jt.skipped <- jt.skipped + 1)
    (Vg_core.Transtab.all_entries s.S.transtab);
  p.on <- true

(** GC pauses from the runtime's own event ring: time spent inside
    outermost runtime phases.  Collection starts paused; the traced
    sessions resume it. *)
type gc_events = {
  mutable depth : int;
  mutable since : int64;
  mutable pause_ns : int;
  mutable lost : int;
}

(** Start collecting; returns the tally and the function that drains
    the ring into it (call it often enough that the ring never wraps). *)
let start_gc_events () : gc_events * (unit -> unit) =
  Runtime_events.start ();
  Runtime_events.pause ();
  let g = { depth = 0; since = 0L; pause_ns = 0; lost = 0 } in
  let ts = Runtime_events.Timestamp.to_int64 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t _ ->
        if g.depth = 0 then g.since <- ts t;
        g.depth <- g.depth + 1)
      ~runtime_end:(fun _ t _ ->
        if g.depth > 0 then begin
          g.depth <- g.depth - 1;
          if g.depth = 0 then
            g.pause_ns <- g.pause_ns + Int64.to_int (Int64.sub (ts t) g.since)
        end)
      ~lost_events:(fun _ n -> g.lost <- g.lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  (g, fun () -> ignore (Runtime_events.read_poll cursor callbacks None))
