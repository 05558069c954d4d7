(** [vglint]: the standalone JIT-verifier driver.

    {v
    vglint mutate    # seeded-miscompile validation of the verifiers
    vglint corpus    # every tool x workload corpus, verification on
    vglint           # both (CI entry point); exit 0 iff everything holds
    v}

    [mutate] compiles a guest corpus, injects seeded miscompile bugs
    (dropped PUT, lost register assignment, wrong shift width, stale
    label, corrupted byte, ...) into individual phase results and checks
    each is caught at the earliest boundary that can see it.

    [corpus] runs every in-tree tool over a workload corpus with
    [verify_jit] enabled, so all eight phase boundaries plus the
    tool-instrumentation lints run on every translation; any verifier
    error (a false positive, since these tools are correct) fails the
    run.  The corpus runs twice per cell — tiered (quick tier, hotness
    promotion, superblocks) and tier0-only (quick translations never
    promoted) — so the verifiers are exercised over every pipeline shape
    the session can produce. *)

let corpus_workloads = [ "gcc"; "mcf"; "perlbmk"; "vortex" ]

let run_mutate () : bool =
  print_endline "== vglint: seeded-mutation validation ==";
  let outcomes = Verify.Mutate.run () in
  List.iter (fun o -> Fmt.pr "%a@." Verify.Mutate.pp_outcome o) outcomes;
  let ok = Verify.Mutate.all_caught outcomes in
  let caught = List.length (List.filter (fun o -> o.Verify.Mutate.o_caught) outcomes) in
  Fmt.pr "%d/%d seeded bugs caught at their earliest boundary@." caught
    (List.length outcomes);
  ok

(* aggressive tiering knobs so the short corpus runs actually exercise
   promotion and superblock formation under verification *)
let corpus_modes : (string * Vg_core.Session.options) list =
  [
    ( "tiered",
      {
        Vg_core.Session.default_options with
        max_blocks = 50_000L;
        promote_threshold = 8;
        trace_threshold = 64;
        scan = true;
      } );
    ( "tier0-only",
      {
        Vg_core.Session.default_options with
        max_blocks = 50_000L;
        promote_threshold = 0;
        superblocks = false;
        scan = true;
      } );
  ]

let run_corpus () : bool =
  print_endline "== vglint: tool x workload corpus, verification on ==";
  let failed = ref 0 in
  List.iter
    (fun wname ->
      let w =
        match Workloads.find wname with
        | Some w -> w
        | None -> failwith ("unknown workload " ^ wname)
      in
      let img = Workloads.compile ~scale:1 w in
      (* vgscan lint classes over the benign workload: any finding is a
         false positive and fails the corpus *)
      let scan_findings = Static.Lint.run (Static.Cfg.scan img) in
      if scan_findings <> [] then begin
        failed := !failed + List.length scan_findings;
        List.iter
          (fun (f : Static.Lint.finding) ->
            Fmt.pr "%-10s vgscan FALSE POSITIVE [%s] 0x%Lx: %s@." wname
              f.Static.Lint.f_class f.Static.Lint.f_addr
              f.Static.Lint.f_msg)
          scan_findings
      end
      else Fmt.pr "%-10s vgscan           clean (%s)@." wname
             (String.concat "|" Static.Lint.classes);
      List.iter
        (fun (tname, tool) ->
          (* fuel (max_blocks) keeps slow tools (redux, memcheck-origins)
             from dominating; verification happens per translation *)
          List.iter
            (fun (mname, options) ->
              let s = Vg_core.Session.create ~options ~tool img in
              try
                let (_ : Vg_core.Session.exit_reason) =
                  Vg_core.Session.run s
                in
                let st = Vg_core.Session.stats s in
                (* soundness oracle: every executed block start must be
                   statically known (corpus modes run with [scan]) *)
                if st.st_cfg_miss <> 0 then begin
                  incr failed;
                  Fmt.pr "%-10s %-16s %-10s CFG MISS: %d of %d@." wname
                    tname mname st.st_cfg_miss st.st_cfg_checked
                end;
                Fmt.pr
                  "%-10s %-16s %-10s ok (%d translations, %d checks, %d \
                   oracle)@."
                  wname tname mname st.st_translations st.st_verify_checks
                  st.st_cfg_checked
              with Verify.Verr.Error _ as e ->
                incr failed;
                Fmt.pr "%-10s %-16s %-10s VERIFY FAILED: %s@." wname tname
                  mname
                  (Verify.Verr.to_string e))
            corpus_modes)
        Tools.Table.sweep)
    corpus_workloads;
  !failed = 0

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let ok =
    match mode with
    | "mutate" -> run_mutate ()
    | "corpus" -> run_corpus ()
    | "all" ->
        let a = run_mutate () in
        let b = run_corpus () in
        a && b
    | m ->
        prerr_endline ("vglint: unknown mode '" ^ m ^ "' (mutate|corpus)");
        exit 2
  in
  if not ok then begin
    prerr_endline "vglint: FAILED";
    exit 1
  end;
  print_endline "vglint: all checks hold"
