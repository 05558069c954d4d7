(* VH64 host machine tests: encode/decode roundtrip, ALU semantics
   (property-tested against Int64), helper calls, exits. *)

open Host.Arch

let t name f = Alcotest.test_case name `Quick f
let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let sample =
  [
    Movi (3, 0x123456789ABCDEF0L);
    Mov (1, 2);
    Alu (W32, Add, 0, 1, 2);
    Alu (W64, Mulhs, 5, 6, 7);
    Alui (W32, Xor, 3, 3, -1L);
    Alui (W64, Sar, 4, 4, 63L);
    Ld (4, true, 2, 15, 1024);
    Ld (1, false, 2, 3, -8);
    St (8, 1, 15, 640);
    Cmov (0, 1, 2);
    Falu (FMul, 3, 4, 5);
    Fun1 (I32StoF64, 1, 2);
    Fun1 (Clz32, 1, 2);
    Vld (3, 15, 96);
    Vst (2, 0, 0);
    Vmov (1, 2);
    Valu (VAdd32, 0, 1, 2);
    Vnot (3, 3);
    Vsplat32 (2, 9);
    Vpack (1, 3, 4);
    Vunpack (5, 1, 1);
    Call (3, 2, 8);
    ExitIf (2, ek_boring, 0x1234L);
    Goto (ek_ret, 7);
    GotoI (ek_syscall, 0xFFFFL);
  ]

let test_roundtrip () =
  (* jumps need labels; test them separately below *)
  let bytes = Host.Encode.assemble sample in
  let decoded = Host.Encode.decode bytes in
  Alcotest.(check int) "count" (List.length sample) (Array.length decoded);
  List.iteri
    (fun i orig ->
      Alcotest.(check string)
        (Fmt.str "insn %d" i)
        (Fmt.str "%a" pp_insn orig)
        (Fmt.str "%a" pp_insn decoded.(i)))
    sample

let test_labels () =
  let code =
    [ Movi (0, 1L); Jnz (0, 7); Movi (1, 111L); Label 7; GotoI (ek_boring, 0L) ]
  in
  let decoded = Host.Encode.decode (Host.Encode.assemble code) in
  (* after decoding, the branch target is an instruction index; Label
     occupies no bytes, so in the decoded array (which has no Label) the
     target is the GotoI at index 3 *)
  match decoded.(1) with
  | Jnz (0, 3) -> ()
  | i -> Alcotest.failf "bad branch rewrite: %a" pp_insn i

let null_env : Vex_ir.Helpers.env =
  {
    he_get_guest = (fun _ _ -> 0L);
    he_put_guest = (fun _ _ _ -> ());
    he_load = (fun _ _ -> 0L);
    he_store = (fun _ _ _ -> ());
  }

let run_host ?(setup = fun _ -> ()) (code : insn list) : Host.Interp.cpu * int64 =
  let mem = Aspace.create () in
  Aspace.map mem ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  let cpu = Host.Interp.create mem in
  setup cpu;
  let decoded = Host.Encode.decode (Host.Encode.assemble code) in
  let _, dest, _ = Host.Interp.run cpu ~env:null_env decoded in
  (cpu, dest)

let test_alu_widths () =
  let cpu, _ =
    run_host
      [
        Movi (1, 0xFFFFFFFFL);
        Movi (2, 1L);
        Alu (W32, Add, 3, 1, 2);
        (* wraps to 0 *)
        Alu (W64, Add, 4, 1, 2);
        (* 0x100000000 *)
        Alui (W32, Sar, 5, 1, 1L);
        (* sign bit set in W32 view -> stays 0x7FFFFFFF? no: sar of
           0xFFFFFFFF as signed 32 = -1 -> 0xFFFFFFFF *)
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.check i64 "w32 wrap" 0L (Host.Interp.reg cpu 3);
  Alcotest.check i64 "w64 no wrap" 0x100000000L (Host.Interp.reg cpu 4);
  Alcotest.check i64 "w32 sar" 0xFFFFFFFFL (Host.Interp.reg cpu 5)

let test_memory_and_exits () =
  let cpu, dest =
    run_host
      [
        Movi (1, 0x1100L);
        Movi (2, 0xCAFEBABE12345678L);
        St (8, 2, 1, 0);
        Ld (4, false, 3, 1, 0);
        Ld (4, true, 4, 1, 4);
        Ld (2, false, 5, 1, 6);
        ExitIf (0, ek_boring, 0x9999L);
        (* h0=0: not taken *)
        Goto (ek_ret, 3);
      ]
  in
  Alcotest.check i64 "zext load" 0x12345678L (Host.Interp.reg cpu 3);
  Alcotest.check i64 "sext load" 0xFFFFFFFFCAFEBABEL (Host.Interp.reg cpu 4);
  Alcotest.check i64 "halfword" 0xCAFEL (Host.Interp.reg cpu 5);
  Alcotest.check i64 "goto truncates to 32" 0x12345678L dest

let test_fp_on_gprs () =
  let cpu, _ =
    run_host
      [
        Movi (1, Int64.bits_of_float 2.5);
        Movi (2, Int64.bits_of_float 4.0);
        Falu (FMul, 3, 1, 2);
        Fun1 (F64toI32S, 4, 3);
        Movi (5, 9L);
        Fun1 (I32StoF64, 6, 5);
        Fun1 (FSqrt, 7, 6);
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.(check (float 1e-9))
    "fmul" 10.0
    (Int64.float_of_bits (Host.Interp.reg cpu 3));
  Alcotest.check i64 "f2i" 10L (Host.Interp.reg cpu 4);
  Alcotest.(check (float 1e-9))
    "sqrt" 3.0
    (Int64.float_of_bits (Host.Interp.reg cpu 7))

let test_helper_call () =
  let callee =
    Vex_ir.Helpers.register ~name:"host_test_mul" ~cost:2 (fun _env args ->
        Int64.mul args.(0) args.(1))
  in
  let cpu, _ =
    run_host
      [
        Movi (0, 6L);
        Movi (1, 7L);
        Call (callee.c_id, 2, callee.c_cost);
        GotoI (ek_boring, 0L);
      ]
  in
  Alcotest.check i64 "result in h0" 42L (Host.Interp.reg cpu 0)

let test_div_trap () =
  try
    ignore
      (run_host [ Movi (1, 1L); Movi (2, 0L); Alu (W32, Divs, 3, 1, 2) ]);
    Alcotest.fail "expected Host_sigfpe"
  with Host.Interp.Host_sigfpe -> ()

let test_cost_accounting () =
  let cpu, _ =
    run_host [ Movi (0, 1L); Movi (1, 2L); GotoI (ek_boring, 0L) ]
  in
  Alcotest.check i64 "3 cycles for 3 single-cycle insns" 3L cpu.cycles;
  Alcotest.check i64 "3 insns" 3L cpu.insns

let all_alu_ops =
  [ Add; Sub; And; Or; Xor; Shl; Shr; Sar; Mul; Mulhs; Divs; Divu; CmpEq;
    CmpNe; CmpLts; CmpLes; CmpLtu; CmpLeu ]

(* [run] charges each instruction inside its dispatch arm; every form
   must cost exactly what the model, [Arch.cost], says *)
let test_cost_matches_model () =
  let mem = Aspace.create () in
  Aspace.map mem ~addr:0x1000L ~len:8192 ~perm:Aspace.perm_rw;
  let callee =
    Vex_ir.Helpers.register ~name:"host_test_cost" ~cost:7 (fun _ _ -> 0L)
  in
  let exit = GotoI (ek_boring, 0L) in
  let insns =
    [ Movi (1, 2L); Mov (1, 2); Ld (4, true, 1, 3, 0); St (8, 2, 3, 0);
      Cmov (1, 2, 2); Vld (1, 3, 0); Vst (1, 3, 0); Vmov (1, 2);
      Valu (VAdd32, 1, 2, 3); Vnot (1, 2); Vsplat32 (1, 2); Vpack (1, 2, 3);
      Vunpack (1, 2, 1); Call (callee.c_id, 2, callee.c_cost); Jz (2, 1);
      Jnz (2, 1); Jmp 1; Label 0; ExitIf (2, ek_boring, 0L);
      Goto (ek_boring, 2); exit ]
    @ List.concat_map
        (fun op -> [ Alu (W32, op, 1, 2, 2); Alui (W64, op, 1, 2, 3L) ])
        all_alu_ops
    @ List.map
        (fun op -> Falu (op, 1, 2, 2))
        [ FAdd; FSub; FMul; FDiv; FMin; FMax; FCmpEq; FCmpLt; FCmpLe ]
    @ List.map
        (fun op -> Fun1 (op, 1, 2))
        [ FSqrt; FNeg; FAbs; I32StoF64; F64toI32S; Clz32; Ctz32 ]
  in
  List.iter
    (fun i ->
      let cpu = Host.Interp.create mem in
      Host.Interp.set_reg cpu 2 5L;
      Host.Interp.set_reg cpu 3 0x1100L;
      ignore (Host.Interp.run cpu ~env:null_env [| i; exit |]);
      let exits =
        match i with ExitIf _ | Goto _ | GotoI _ -> true | _ -> false
      in
      let expected = cost i + if exits then 0 else cost exit in
      Alcotest.check i64 (Fmt.str "%a" pp_insn i) (Int64.of_int expected)
        cpu.cycles)
    insns

let fell_through = Invalid_argument "Host.Interp.run: translation fell through"

let test_no_exit_fires () =
  let cpu = Host.Interp.create (Aspace.create ()) in
  let run code () = ignore (Host.Interp.run cpu ~env:null_env code) in
  Alcotest.check_raises "empty code" fell_through (run [||]);
  Alcotest.check_raises "untaken exit" fell_through
    (run [| Movi (0, 0L); ExitIf (0, ek_boring, 0x10L) |])

(* The TLB: each case first brings page 0x1000 into the cpu's cache,
   then changes the address space behind it. *)

let page = 0x1000L

let tlb_setup () =
  let mem = Aspace.create () in
  Aspace.map mem ~addr:page ~len:8192 ~perm:Aspace.perm_rw;
  (mem, Host.Interp.create mem)

(* run [body] with h1 = [addr], then exit *)
let exec cpu addr body =
  let code =
    Array.of_list ((Movi (1, addr) :: body) @ [ GotoI (ek_boring, 0L) ])
  in
  ignore (Host.Interp.run cpu ~env:null_env code)

let load cpu ?(size = 8) addr =
  exec cpu addr [ Ld (size, false, 2, 1, 0) ];
  Host.Interp.reg cpu 2

let store cpu ?(size = 8) addr v =
  exec cpu addr [ Movi (2, v); St (size, 2, 1, 0) ]

let expect_fault name kind addr f =
  match f () with
  | exception Aspace.Fault { addr = a; kind = k } when k = kind ->
      Alcotest.check i64 (name ^ ": fault address") addr a
  | _ ->
      Alcotest.failf "%s: expected a %a fault" name Aspace.pp_access_kind kind

let test_tlb_unmap () =
  let mem, cpu = tlb_setup () in
  store cpu 0x1100L 7L;
  Alcotest.check i64 "cached" 7L (load cpu 0x1100L);
  Aspace.unmap mem ~addr:page ~len:4096;
  expect_fault "load after unmap" Aspace.Read 0x1100L (fun () ->
      load cpu 0x1100L)

let test_tlb_protect () =
  let mem, cpu = tlb_setup () in
  store cpu 0x1100L 7L;
  Aspace.protect mem ~addr:page ~len:4096
    ~perm:{ Aspace.r = true; w = false; x = false };
  expect_fault "store after protect" Aspace.Write 0x1108L (fun () ->
      store cpu 0x1108L 1L);
  Alcotest.check i64 "still readable" 7L (load cpu 0x1100L)

let test_tlb_restore () =
  let mem, cpu = tlb_setup () in
  store cpu 0x1100L 0xAAL;
  let snap = Aspace.snapshot mem in
  store cpu 0x1100L 0xBBL;
  Aspace.restore mem snap;
  Alcotest.check i64 "restored bytes" 0xAAL (load cpu 0x1100L);
  store cpu 0x1100L 0xCCL;
  Alcotest.check i64 "store lands in the restored page" 0xCCL
    (Aspace.read mem 0x1100L 8)

let test_tlb_map_zero () =
  let mem, cpu = tlb_setup () in
  store cpu 0x1100L 0x55L;
  Aspace.map mem ~zero:true ~addr:page ~len:4096 ~perm:Aspace.perm_rw;
  Alcotest.check i64 "zeroed" 0L (load cpu 0x1100L)

let test_tlb_page_crossing () =
  let mem, cpu = tlb_setup () in
  ignore (load cpu 0x1000L);
  let addr = Int64.add page 4093L in
  store cpu addr 0x1122334455667788L;
  Alcotest.check i64 "8-byte load across pages" 0x1122334455667788L
    (load cpu addr);
  Alcotest.check i64 "low bytes on the first page" 0x667788L
    (Aspace.read mem addr 3);
  Alcotest.check i64 "high bytes on the second page" 0x1122334455L
    (Aspace.read mem 0x2000L 5)

let test_tlb_store_watch () =
  let mem, cpu = tlb_setup () in
  store cpu 0x1100L 1L;
  let seen = ref [] in
  Aspace.add_store_watch mem (fun a sz -> seen := (a, sz) :: !seen);
  store cpu 0x1100L 2L;
  store cpu ~size:2 0x1104L 3L;
  Alcotest.(check (list (pair i64 int)))
    "both stores notified"
    [ (0x1104L, 2); (0x1100L, 8) ]
    !seen

let test_tlb_shared_mem () =
  let mem, a = tlb_setup () in
  let b = Host.Interp.create mem in
  ignore (load a 0x1100L);
  ignore (load b 0x1100L);
  store b 0x1100L 0x1234L;
  Alcotest.check i64 "a sees b's store" 0x1234L (load a 0x1100L);
  store a ~size:4 0x1100L 0xFEDCBA98L;
  Alcotest.check i64 "b sees a's store" 0xFEDCBA98L (load b 0x1100L)

let test_tlb_helper_unmaps () =
  let mem, cpu = tlb_setup () in
  let callee =
    Vex_ir.Helpers.register ~name:"host_test_unmap" ~cost:1 (fun _env _ ->
        Aspace.unmap mem ~addr:page ~len:4096;
        0L)
  in
  expect_fault "load after a helper unmapped" Aspace.Read 0x1100L (fun () ->
      exec cpu 0x1100L
        [ Ld (8, false, 2, 1, 0); Call (callee.c_id, 0, 1);
          Ld (8, false, 2, 1, 0) ])

(* property: W32 ALU ops match the reference semantics of Bits *)
let prop_alu32 =
  let open QCheck in
  Test.make ~count:300 ~name:"host W32 alu = Bits semantics"
    (triple (oneofl [ Add; Sub; And; Or; Xor; Mul ]) int64 int64)
    (fun (op, a, b) ->
      let a = Support.Bits.trunc32 a and b = Support.Bits.trunc32 b in
      let expected =
        Support.Bits.trunc32
          (match op with
          | Add -> Int64.add a b
          | Sub -> Int64.sub a b
          | And -> Int64.logand a b
          | Or -> Int64.logor a b
          | Xor -> Int64.logxor a b
          | Mul -> Int64.mul a b
          | _ -> assert false)
      in
      Host.Interp.alu_eval W32 op a b = expected)

let tests =
  [
    t "encode/decode roundtrip" test_roundtrip;
    t "label resolution" test_labels;
    t "alu widths" test_alu_widths;
    t "memory + exits" test_memory_and_exits;
    t "fp on gprs" test_fp_on_gprs;
    t "helper calls" test_helper_call;
    t "div traps" test_div_trap;
    t "cycle accounting" test_cost_accounting;
    t "no exit fires" test_no_exit_fires;
    t "tlb: unmap" test_tlb_unmap;
    t "tlb: protect" test_tlb_protect;
    t "tlb: restore" test_tlb_restore;
    t "tlb: map zero" test_tlb_map_zero;
    t "tlb: page crossing" test_tlb_page_crossing;
    t "tlb: store watch" test_tlb_store_watch;
    t "tlb: shared address space" test_tlb_shared_mem;
    t "tlb: helper changes mappings" test_tlb_helper_unmaps;
    t "cost of every form = Arch.cost" test_cost_matches_model;
    QCheck_alcotest.to_alcotest prop_alu32;
  ]
