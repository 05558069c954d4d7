(** VH64 interpreter — the simulated host CPU that runs translations.

    The dispatcher points [h15] (GSP) at the current ThreadState and runs
    a decoded translation; the translation ends with an exit instruction
    carrying the next guest PC and an exit kind.  Helper [Call]s are
    routed through the global {!Vex_ir.Helpers} table with an environment
    that accesses the same simulated address space the guest lives in.

    Cycle accounting charges {!Arch.cost} for every instruction run; the
    dispatcher/scheduler add their own costs on top (paper §3.9). *)

open Arch
open Support

(** Raised when translated code divides by zero (guest SIGFPE). *)
exception Host_sigfpe

(** Entries in each cpu's software TLB (a power of two). *)
let tlb_size = 64

type cpu = {
  hregs : Bytes.t;  (** h0..h15, 8 bytes each, little-endian *)
  hvregs : V128.t array;  (** hv0..hv7 *)
  mem : Aspace.t;
  mutable cycles : int64;
  mutable insns : int64;
  tlb_rtag : int array;
      (** per slot, the page index cached there if it is readable, else -1 *)
  tlb_wtag : int array;  (** the same for writable pages *)
  tlb_data : Bytes.t array;  (** the cached page's bytes *)
  mutable tlb_gen : int;  (** the [mem.gen] the tags were filled under *)
  call_args : int64 array array;
      (** one helper argument buffer per arity, [0..n_hregs] *)
}

let create mem =
  {
    hregs = Bytes.make (8 * n_hregs) '\000';
    hvregs = Array.make n_hvregs V128.zero;
    mem;
    cycles = 0L;
    insns = 0L;
    tlb_rtag = Array.make tlb_size (-1);
    tlb_wtag = Array.make tlb_size (-1);
    tlb_data = Array.make tlb_size Bytes.empty;
    tlb_gen = mem.Aspace.gen;
    call_args = Array.init (n_hregs + 1) (fun n -> Array.make n 0L);
  }

(** Host register [i]. *)
let reg (cpu : cpu) i = Bytes.get_int64_le cpu.hregs (i lsl 3)

let set_reg (cpu : cpu) i v = Bytes.set_int64_le cpu.hregs (i lsl 3) v

(* [alu_eval] for the operations translations use least *)
let alu_rest (w : width) (op : alu_op) (a : int64) (b : int64) : int64 =
  let a32 () = Bits.sext32 a and b32 () = Bits.sext32 b in
  match (op, w) with
  | (Add | Sub | And | Or | Xor | CmpEq | CmpNe), _ ->
      invalid_arg "Host.Interp.alu_rest: handled by alu_eval"
  | Shl, W32 -> Bits.shl32 a b
  | Shl, W64 -> Bits.shl64 a b
  | Shr, W32 -> Bits.shr32 a b
  | Shr, W64 -> Bits.shr64 a b
  | Sar, W32 -> Bits.sar32 a b
  | Sar, W64 -> Bits.sar64 a b
  | Mul, W32 -> Bits.trunc32 (Int64.mul a b)
  | Mul, W64 -> Int64.mul a b
  | Mulhs, W32 ->
      Bits.trunc32 (Int64.shift_right (Int64.mul (a32 ()) (b32 ())) 32)
  | Mulhs, W64 ->
      (* high part of signed 64x64; sufficient approximation via floats is
         not acceptable — use the standard 32-bit split *)
      let ah = Int64.shift_right a 32 and al = Bits.trunc32 a in
      let bh = Int64.shift_right b 32 and bl = Bits.trunc32 b in
      let albl = Int64.mul al bl in
      let mid1 = Int64.mul ah bl and mid2 = Int64.mul al bh in
      let carry =
        Int64.shift_right_logical
          (Int64.add (Int64.add (Bits.trunc32 mid1) (Bits.trunc32 mid2))
             (Int64.shift_right_logical albl 32))
          32
      in
      Int64.add
        (Int64.add (Int64.mul ah bh)
           (Int64.add (Int64.shift_right mid1 32) (Int64.shift_right mid2 32)))
        carry
  | Divs, W32 ->
      if Bits.trunc32 b = 0L then raise Host_sigfpe
      else Bits.trunc32 (Int64.div (a32 ()) (b32 ()))
  | Divs, W64 -> if b = 0L then raise Host_sigfpe else Int64.div a b
  | Divu, W32 ->
      if Bits.trunc32 b = 0L then raise Host_sigfpe
      else Bits.trunc32 (Int64.unsigned_div (Bits.trunc32 a) (Bits.trunc32 b))
  | Divu, W64 -> if b = 0L then raise Host_sigfpe else Int64.unsigned_div a b
  | CmpLts, W32 -> Bits.bool64 (Bits.cmp32s a b < 0)
  | CmpLts, W64 -> Bits.bool64 (Int64.compare a b < 0)
  | CmpLes, W32 -> Bits.bool64 (Bits.cmp32s a b <= 0)
  | CmpLes, W64 -> Bits.bool64 (Int64.compare a b <= 0)
  | CmpLtu, W32 -> Bits.bool64 (Bits.cmp32u a b < 0)
  | CmpLtu, W64 -> Bits.bool64 (Int64.unsigned_compare a b < 0)
  | CmpLeu, W32 -> Bits.bool64 (Bits.cmp32u a b <= 0)
  | CmpLeu, W64 -> Bits.bool64 (Int64.unsigned_compare a b <= 0)

(** [op] at width [w]; a W32 result is zero-extended.  The operations
    translations use most are written so that [run] inlines them and
    boxes no value; the rest go to [alu_rest]. *)
let[@inline] alu_eval (w : width) (op : alu_op) (a : int64) (b : int64) :
    int64 =
  let m32 = 0xFFFF_FFFFL in
  match (w, op) with
  | W32, Add -> Int64.logand (Int64.add a b) m32
  | W64, Add -> Int64.add a b
  | W32, Sub -> Int64.logand (Int64.sub a b) m32
  | W64, Sub -> Int64.sub a b
  | W32, And -> Int64.logand (Int64.logand a b) m32
  | W64, And -> Int64.logand a b
  | W32, Or -> Int64.logand (Int64.logor a b) m32
  | W64, Or -> Int64.logor a b
  | W32, Xor -> Int64.logand (Int64.logxor a b) m32
  | W64, Xor -> Int64.logxor a b
  | W32, CmpEq -> if Int64.logand (Int64.logxor a b) m32 = 0L then 1L else 0L
  | W64, CmpEq -> if a = b then 1L else 0L
  | W32, CmpNe -> if Int64.logand (Int64.logxor a b) m32 = 0L then 0L else 1L
  | W64, CmpNe -> if a = b then 0L else 1L
  | _ -> alu_rest w op a b

(* {!Arch.cost} of an [Alu]/[Alui] with operation [op] *)
let[@inline] alu_cost = function
  | Mul | Mulhs -> 3
  | Divs | Divu -> 20
  | _ -> 1

let falu_eval op a b =
  let fa = Bits.float_of_bits a and fb = Bits.float_of_bits b in
  match op with
  | FAdd -> Bits.bits_of_float (fa +. fb)
  | FSub -> Bits.bits_of_float (fa -. fb)
  | FMul -> Bits.bits_of_float (fa *. fb)
  | FDiv -> Bits.bits_of_float (fa /. fb)
  | FMin -> Bits.bits_of_float (Float.min fa fb)
  | FMax -> Bits.bits_of_float (Float.max fa fb)
  | FCmpEq -> Bits.bool64 (fa = fb)
  | FCmpLt -> Bits.bool64 (fa < fb)
  | FCmpLe -> Bits.bool64 (fa <= fb)

let fun1_eval op a =
  match op with
  | FSqrt -> Bits.bits_of_float (Float.sqrt (Bits.float_of_bits a))
  | FNeg -> Bits.bits_of_float (-.Bits.float_of_bits a)
  | FAbs -> Bits.bits_of_float (Float.abs (Bits.float_of_bits a))
  | I32StoF64 -> Bits.bits_of_float (Int64.to_float (Bits.sext32 a))
  | F64toI32S ->
      Bits.trunc32 (Int64.of_float (Float.trunc (Bits.float_of_bits a)))
  | Clz32 -> Bits.clz32 a
  | Ctz32 -> Bits.ctz32 a

let valu_eval op a b =
  match op with
  | VAnd -> V128.logand a b
  | VOr -> V128.logor a b
  | VXor -> V128.logxor a b
  | VAdd32 -> V128.add32x4 a b
  | VSub32 -> V128.sub32x4 a b
  | VCmpEq32 -> V128.cmpeq32x4 a b
  | VAdd8 -> V128.add8x16 a b
  | VSub8 -> V128.sub8x16 a b

(** {2 The software TLB}

    Translated code reaches client memory and the ThreadState through
    [Ld]/[St], and an {!Aspace} page-table lookup on each would dominate
    the interpreter's time.  Each cpu caches up to {!tlb_size} pages, direct-mapped by
    page index, split into a read tag and a write tag so that one
    compare checks both the page and its permission.  Anything the
    cache cannot answer exactly (a miss, an access that crosses a page,
    a missing permission, a size other than 1/2/4/8) goes to
    {!Aspace.read}/{!Aspace.write}, which raise the precise
    {!Aspace.Fault}.  The cache is invalidated wholesale whenever
    [mem.gen] moves, i.e. after any map, unmap, protect or restore. *)

let tlb_flush (cpu : cpu) =
  Array.fill cpu.tlb_rtag 0 tlb_size (-1);
  Array.fill cpu.tlb_wtag 0 tlb_size (-1);
  (* drop the pages too, so unmapped ones can be collected *)
  Array.fill cpu.tlb_data 0 tlb_size Bytes.empty;
  cpu.tlb_gen <- cpu.mem.Aspace.gen

let[@inline] tlb_sync (cpu : cpu) =
  if cpu.tlb_gen <> cpu.mem.Aspace.gen then tlb_flush cpu

(* {!Aspace}'s page geometry.  For [addr32 addr], [lsr page_shift] is
   {!Aspace.page_index} and [land page_mask] is {!Aspace.page_offset}. *)
let page_shift = Aspace.page_shift
let page_mask = Aspace.page_size - 1

(* [addr] truncated to 32 bits, as {!Aspace} reads addresses *)
let[@inline] addr32 (addr : int64) = Int64.to_int addr land 0xFFFF_FFFF

(* A miss: cache the page for next time (unless the access crosses
   it), then let the address space do, or refuse, this access. *)
let tlb_refill (cpu : cpu) (addr : int64) (sz : int) =
  let a = addr32 addr in
  let pi = a lsr page_shift in
  if (a land page_mask) + sz <= Aspace.page_size then
    match Aspace.find_page cpu.mem pi with
    | None -> ()
    | Some p ->
        let slot = pi land (tlb_size - 1) in
        cpu.tlb_data.(slot) <- p.Aspace.data;
        cpu.tlb_rtag.(slot) <- (if p.Aspace.perm.r then pi else -1);
        cpu.tlb_wtag.(slot) <- (if p.Aspace.perm.w then pi else -1)

let load_slow (cpu : cpu) (addr : int64) (sz : int) : int64 =
  tlb_refill cpu addr sz;
  Aspace.read cpu.mem addr sz

let store_slow (cpu : cpu) (addr : int64) (sz : int) (v : int64) =
  tlb_refill cpu addr sz;
  Aspace.write cpu.mem addr sz v;
  (* a store watcher may have changed the mappings *)
  tlb_sync cpu

let[@inline] load (cpu : cpu) (addr : int64) (sz : int) : int64 =
  let a = addr32 addr in
  let pi = a lsr page_shift and off = a land page_mask in
  let slot = pi land (tlb_size - 1) in
  if Array.unsafe_get cpu.tlb_rtag slot = pi && off + sz <= Aspace.page_size
  then
    let d = Array.unsafe_get cpu.tlb_data slot in
    match sz with
    | 8 -> Bytes.get_int64_le d off
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le d off)) 0xFFFF_FFFFL
    | 1 -> Int64.of_int (Bytes.get_uint8 d off)
    | 2 -> Int64.of_int (Bytes.get_uint16_le d off)
    | _ -> Aspace.read cpu.mem addr sz
  else load_slow cpu addr sz

let[@inline] store (cpu : cpu) (addr : int64) (sz : int) (v : int64) =
  let a = addr32 addr in
  let pi = a lsr page_shift and off = a land page_mask in
  let slot = pi land (tlb_size - 1) in
  if
    Array.unsafe_get cpu.tlb_wtag slot = pi
    && off + sz <= Aspace.page_size
    && (sz = 8 || sz = 4 || sz = 1 || sz = 2)
  then begin
    let d = Array.unsafe_get cpu.tlb_data slot in
    (match sz with
    | 8 -> Bytes.set_int64_le d off v
    | 4 -> Bytes.set_int32_le d off (Int64.to_int32 v)
    | 1 -> Bytes.set_uint8 d off (Int64.to_int v land 0xFF)
    | _ -> Bytes.set_uint16_le d off (Int64.to_int v land 0xFFFF));
    match cpu.mem.Aspace.store_watch with
    | [] -> ()
    | _ ->
        Aspace.notify_store cpu.mem addr sz;
        tlb_sync cpu
  end
  else store_slow cpu addr sz v

(** Execute decoded translation [code] until an exit instruction fires.
    Returns the exit kind, the next guest PC, and the index in [code] of
    the exit instruction that fired — the "exit site".  A site whose
    target is a constant ([ExitIf]/[GotoI]) is the kind of jump
    translation chaining patches: the core maps the index back to the
    translation's chain slot to decide whether the transfer can bypass
    the dispatcher.  [env] is the helper environment (built by the core
    around the current ThreadState).  Running off the end of [code]
    without an exit (an empty [code] included) is a JIT bug and raises
    [Invalid_argument].

    Moves, loads, stores and the common ALU operations neither look
    anything up nor allocate: registers are unboxed in [hregs] and
    memory goes through the TLB.  A helper's arguments are copied into
    the cpu's buffer for that arity, so a helper must not keep its
    [args] array after it returns. *)
let run (cpu : cpu) ~(env : Vex_ir.Helpers.env) (code : insn array) :
    exit_kind * int64 * int =
  let r = cpu.hregs and v = cpu.hvregs in
  let[@inline] get i = Bytes.get_int64_le r (i lsl 3) in
  let[@inline] set i x = Bytes.set_int64_le r (i lsl 3) x in
  tlb_sync cpu;
  let pc = ref 0 in
  let cycles = ref 0 in
  let steps = ref 0 in
  (* the exit that fired: [site] stays -1 while the block runs *)
  let site = ref (-1) in
  let ek = ref 0 in
  let dest = ref 0L in
  let n = Array.length code in
  while !site < 0 do
    if !pc >= n then
      (* fell off the end of a translation: a JIT bug *)
      invalid_arg "Host.Interp.run: translation fell through";
    let i = code.(!pc) in
    incr pc;
    incr steps;
    (* each arm evaluates to the instruction's {!Arch.cost}, so the cost
       needs no second dispatch on [i] (test_host checks the two agree) *)
    cycles :=
      !cycles
      +
      match i with
      | Movi (d, imm) ->
          set d imm;
          1
      | Mov (d, s) ->
          set d (get s);
          1
      | Alu (w, op, d, s1, s2) ->
          set d (alu_eval w op (get s1) (get s2));
          alu_cost op
      | Alui (w, op, d, s1, imm) ->
          set d (alu_eval w op (get s1) imm);
          alu_cost op
      | Ld (sz, sx, d, b, disp) ->
          let x = load cpu (Int64.add (get b) (Int64.of_int disp)) sz in
          set d
            (if sx then
               match sz with
               | 1 -> Bits.sext8 x
               | 2 -> Bits.sext16 x
               | 4 -> Bits.sext32 x
               | _ -> x
             else x);
          2
      | St (sz, s, b, disp) ->
          store cpu (Int64.add (get b) (Int64.of_int disp)) sz (get s);
          2
      | Cmov (d, c, s) ->
          if get c <> 0L then set d (get s);
          1
      | Falu (op, d, s1, s2) ->
          set d (falu_eval op (get s1) (get s2));
          if op = FDiv then 16 else 3
      | Fun1 (op, d, s) ->
          set d (fun1_eval op (get s));
          if op = FSqrt then 16 else 3
      | Vld (d, b, disp) ->
          let addr = Int64.add (get b) (Int64.of_int disp) in
          v.(d) <-
            V128.make ~lo:(load cpu addr 8)
              ~hi:(load cpu (Int64.add addr 8L) 8);
          2
      | Vst (s, b, disp) ->
          let addr = Int64.add (get b) (Int64.of_int disp) in
          store cpu addr 8 (V128.lo v.(s));
          store cpu (Int64.add addr 8L) 8 (V128.hi v.(s));
          2
      | Vmov (d, s) ->
          v.(d) <- v.(s);
          1
      | Valu (op, d, s1, s2) ->
          v.(d) <- valu_eval op v.(s1) v.(s2);
          1
      | Vnot (d, s) ->
          v.(d) <- V128.lognot v.(s);
          1
      | Vsplat32 (d, s) ->
          v.(d) <- V128.splat32 (get s);
          1
      | Vpack (d, hi, lo) ->
          v.(d) <- V128.make ~hi:(get hi) ~lo:(get lo);
          1
      | Vunpack (d, s, half) ->
          set d (if half = 0 then V128.lo v.(s) else V128.hi v.(s));
          1
      | Call (id, nargs, c) ->
          let args =
            if nargs >= 0 && nargs <= n_hregs then begin
              let a = cpu.call_args.(nargs) in
              for k = 0 to nargs - 1 do
                a.(k) <- get k
              done;
              a
            end
            else Array.init nargs get
          in
          set ret_reg (Vex_ir.Helpers.call id env args);
          (* the helper may have changed the mappings *)
          tlb_sync cpu;
          10 + c
      | Jz (c, l) ->
          if get c = 0L then pc := l;
          1
      | Jnz (c, l) ->
          if get c <> 0L then pc := l;
          1
      | Jmp l ->
          pc := l;
          1
      | Label _ -> 0
      | ExitIf (c, k, d) ->
          if get c <> 0L then begin
            ek := k;
            dest := d;
            site := !pc - 1
          end;
          1
      | Goto (k, s) ->
          ek := k;
          dest := Bits.trunc32 (get s);
          site := !pc - 1;
          1
      | GotoI (k, d) ->
          ek := k;
          dest := d;
          site := !pc - 1;
          1
  done;
  cpu.cycles <- Int64.add cpu.cycles (Int64.of_int !cycles);
  cpu.insns <- Int64.add cpu.insns (Int64.of_int !steps);
  (!ek, !dest, !site)
