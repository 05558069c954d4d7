(** Wall-clock spans, recorded from outside the library.

    A span is opened before a call into one layer and closed when the
    call returns.  Its kind may be decided only at close (a scheduler
    step is classified after it ran).  Every close adds the span's
    duration to its kind's total and to its parent's child time, so a
    kind's self time — its spans minus the parts their child spans
    cover — is exact without keeping the spans.  The first [raw_cap]
    spans are also kept in memory as (id, parent, kind, start, end,
    session) and written out once the benchmark ends. *)

let now () : int = Int64.to_int (Monotonic_clock.now ())

let input = 0
let create = 1
let step_jit = 2
let step_exec = 3
let step_switch = 4
let helper = 5
let syscall = 6
let instrument = 7

let names =
  [| "input"; "create"; "step.jit"; "step.exec"; "step.switch";
     "tool.helper"; "kernel.syscall"; "tool.instrument" |]

let n_kinds = Array.length names
let max_depth = 16
let raw_cap = 50_000
let raw_fields = 6

type t = {
  total : int array;  (** ns, per kind *)
  self : int array;  (** ns, per kind *)
  count : int array;
  st_start : int array;
  st_child : int array;
  st_id : int array;
  mutable depth : int;
  mutable next_id : int;
  raw : int array;
  mutable n_raw : int;
  mutable session : int;  (** id stamped on the spans opened from now on *)
}

let create_recorder () =
  {
    total = Array.make n_kinds 0;
    self = Array.make n_kinds 0;
    count = Array.make n_kinds 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    raw = Array.make (raw_cap * raw_fields) 0;
    n_raw = 0;
    session = 0;
  }

let enter t =
  let d = t.depth in
  if d >= max_depth then failwith "Spans.enter: spans nested too deep";
  t.next_id <- t.next_id + 1;
  t.st_id.(d) <- t.next_id;
  t.st_child.(d) <- 0;
  t.st_start.(d) <- now ();
  t.depth <- d + 1

let leave t kind =
  let stop = now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let start = t.st_start.(d) in
  let dur = stop - start in
  t.total.(kind) <- t.total.(kind) + dur;
  t.self.(kind) <- t.self.(kind) + dur - t.st_child.(d);
  t.count.(kind) <- t.count.(kind) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  if t.n_raw < raw_cap then begin
    let o = t.n_raw * raw_fields in
    t.raw.(o) <- t.st_id.(d);
    t.raw.(o + 1) <- (if d > 0 then t.st_id.(d - 1) else 0);
    t.raw.(o + 2) <- kind;
    t.raw.(o + 3) <- start;
    t.raw.(o + 4) <- stop;
    t.raw.(o + 5) <- t.session;
    t.n_raw <- t.n_raw + 1
  end

(** Close, as [kind], every span opened at or below [depth]: a call that
    raised out of a layer leaves its spans open. *)
let unwind t ~depth kind =
  while t.depth > depth do
    leave t kind
  done

(** Per-kind totals, self times and counts: subtract two snapshots to
    get the figures of the work in between. *)
type snap = { s_total : int array; s_self : int array; s_count : int array }

let snap t =
  { s_total = Array.copy t.total; s_self = Array.copy t.self;
    s_count = Array.copy t.count }

let diff a b =
  let d x y = Array.init n_kinds (fun i -> y.(i) - x.(i)) in
  { s_total = d a.s_total b.s_total; s_self = d a.s_self b.s_self;
    s_count = d a.s_count b.s_count }

(** Write the kept spans as JSON lines, times in ns from the first. *)
let write t path =
  let oc = open_out path in
  let base = ref max_int in
  for i = 0 to t.n_raw - 1 do
    base := min !base t.raw.((i * raw_fields) + 3)
  done;
  let base = !base in
  for i = 0 to t.n_raw - 1 do
    let o = i * raw_fields in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"session\":%d}\n"
      t.raw.(o) t.raw.(o + 1) names.(t.raw.(o + 2)) (t.raw.(o + 3) - base)
      (t.raw.(o + 4) - base) t.raw.(o + 5)
  done;
  close_out oc
