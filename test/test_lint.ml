(* Golden tests for the rexspeed lint pass: one fixture per rule with
   exact file:line:rule assertions, plus the suppression, baseline and
   rendering machinery. Fixtures live in lint_fixtures/, which the
   driver's directory walk skips — they are only linted when passed as
   explicit roots, as here. *)

open Lint

let fixture name = Filename.concat "lint_fixtures" name

(* The suppression marker, split so the linter does not read this test
   as a directive when scanning its own source. *)
let marker = "rexspeed" ^ "-lint: allow"

let key (d : Diagnostic.t) =
  (Filename.basename d.file, d.line, Diagnostic.rule_id d.rule)

let scan_fixture name = Driver.scan ~roots:[ fixture name ] ()

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_findings what (report : Driver.report) expected =
  Alcotest.(check (list string)) (what ^ ": no errors") [] report.errors;
  Alcotest.(check (list (triple string int string)))
    (what ^ ": findings")
    expected
    (List.map key report.findings)

(* ------------------------------------------------------------------ *)
(* One fixture per rule                                                *)
(* ------------------------------------------------------------------ *)

let test_rx001 () =
  check_findings "rx001" (scan_fixture "rx001.ml")
    [ ("rx001.ml", 2, "RX001"); ("rx001.ml", 3, "RX001") ]

let test_rx002 () =
  check_findings "rx002" (scan_fixture "rx002.ml")
    [ ("rx002.ml", 2, "RX002"); ("rx002.ml", 3, "RX002") ]

let test_rx003 () =
  check_findings "rx003" (scan_fixture "rx003.ml")
    [ ("rx003.ml", 2, "RX003") ]

let test_rx004 () =
  check_findings "rx004" (scan_fixture "rx004.ml")
    [ ("rx004.ml", 2, "RX004"); ("rx004.ml", 3, "RX004") ]

let test_rx005 () =
  check_findings "rx005" (scan_fixture "rx005.ml")
    [
      ("rx005.ml", 2, "RX005");
      ("rx005.ml", 3, "RX005");
      ("rx005.ml", 4, "RX005");
      ("rx005.ml", 5, "RX005");
      ("rx005.ml", 6, "RX005");
    ]

let test_rx006 () =
  (* Line 2 divides unguarded; line 3 guards the same field and must
     stay silent. *)
  check_findings "rx006" (scan_fixture "rx006.ml")
    [ ("rx006.ml", 2, "RX006") ]

let test_rx007 () =
  check_findings "rx007" (scan_fixture "rx007.ml")
    [
      ("rx007.ml", 2, "RX007");
      ("rx007.ml", 3, "RX007");
      ("rx007.ml", 4, "RX007");
    ]

let test_rx008 () =
  (* Line 2 swallows everything; line 3 has a re-raising sibling and
     must stay silent. *)
  check_findings "rx008" (scan_fixture "rx008.ml")
    [ ("rx008.ml", 2, "RX008") ]

let test_rx009 () =
  let report = scan_fixture "rx009" in
  Alcotest.(check int) "three files in the fixture project" 3
    report.files_scanned;
  check_findings "rx009" report [ ("dead.mli", 2, "RX009") ]

let test_rx010 () =
  (* bad.ml sits under a trace/ directory, so its clock and Random
     reads escalate to RX010; clock.ml is the sanctioned timestamp
     source and must stay silent. *)
  let report = scan_fixture (Filename.concat "rx010" "trace") in
  Alcotest.(check int) "two files in the fixture" 2 report.files_scanned;
  check_findings "rx010" report
    [
      ("bad.ml", 2, "RX010");
      ("bad.ml", 3, "RX010");
      ("bad.ml", 4, "RX010");
    ]

let test_rx011 () =
  check_findings "rx011" (scan_fixture "rx011.ml")
    [
      ("rx011.ml", 3, "RX011");
      ("rx011.ml", 4, "RX011");
      ("rx011.ml", 5, "RX011");
    ]

(* ------------------------------------------------------------------ *)
(* Interprocedural rules: taint, races, exception escape               *)
(* ------------------------------------------------------------------ *)

let test_rx012 () =
  (* helpers.ml holds the raw sinks (flagged per-file by RX001/2/4);
     kernel.ml reaches them transitively from marked entry points and
     pool task bodies. kernel_pure stays silent, and the suppressed
     entry point is counted, not reported. *)
  let report = scan_fixture "rx012" in
  check_findings "rx012" report
    [
      ("helpers.ml", 2, "RX001");
      ("helpers.ml", 3, "RX002");
      ("helpers.ml", 4, "RX004");
      ("kernel.ml", 3, "RX012");
      ("kernel.ml", 6, "RX012");
      ("kernel.ml", 9, "RX012");
      ("kernel.ml", 14, "RX012");
      ("kernel.ml", 17, "RX012");
    ];
  Alcotest.(check int) "suppressed entry point counted" 1 report.suppressed

let test_rx012_chain () =
  (* The named-function task body goes through three calls before the
     sink; the diagnostic must carry that whole path, sink last. *)
  let report = scan_fixture "rx012" in
  match
    List.find_opt
      (fun (d : Diagnostic.t) ->
        d.rule = Diagnostic.RX012 && d.line = 14)
      report.findings
  with
  | None -> Alcotest.fail "kernel.ml:14 RX012 finding missing"
  | Some d ->
      Alcotest.(check int) "three hops plus the sink" 4 (List.length d.chain);
      let file, line, note = List.nth d.chain 3 in
      Alcotest.(check string) "chain ends in the sink file" "helpers.ml"
        (Filename.basename file);
      Alcotest.(check int) "at the sink line" 2 line;
      Alcotest.(check bool) "sink step names the sink" true
        (contains note "Random sink")

let test_rx013 () =
  (* One site writes a ref, an array slot and a mutable field directly;
     a second reaches the ref through a callee. Mutex.protect, Atomic
     and task-local refs stay silent, as does a module-level write made
     outside any pool context. *)
  check_findings "rx013" (scan_fixture "rx013")
    [
      ("races.ml", 12, "RX013");
      ("races.ml", 12, "RX013");
      ("races.ml", 12, "RX013");
      ("races.ml", 19, "RX013");
    ]

let test_rx014 () =
  (* Direct raise, failwith sugar and a cross-module raise all escape;
     handled, policy-exempt and suppressed bodies stay silent. One
     suppression sits at the entry line, one at the sink line — both
     ends must accept the directive. *)
  let report = scan_fixture "rx014" in
  check_findings "rx014" report
    [
      ("escapes.ml", 4, "RX014");
      ("escapes.ml", 9, "RX014");
      ("escapes.ml", 12, "RX014");
    ];
  Alcotest.(check int) "suppressed at entry and at sink" 2 report.suppressed;
  match
    List.find_opt (fun (d : Diagnostic.t) -> d.line = 12) report.findings
  with
  | None -> Alcotest.fail "cross-module RX014 finding missing"
  | Some d -> (
      match List.rev d.chain with
      | (file, line, note) :: _ ->
          Alcotest.(check string) "chain crosses into the raising module"
            "thrower.ml" (Filename.basename file);
          Alcotest.(check int) "at the raise" 3 line;
          Alcotest.(check bool) "step names the exception" true
            (contains note "Kaboom")
      | [] -> Alcotest.fail "cross-module finding has no chain")

let test_rx011_alias_resolution () =
  (* [module U = Unix] makes U.read the real blocking read; a local
     [module Unix = Safe_io] makes Unix.read someone else's. *)
  let report = scan_fixture "rx011_alias" in
  Alcotest.(check int) "both fixture files scanned" 2 report.files_scanned;
  check_findings "rx011_alias" report [ ("alias.ml", 4, "RX011") ]

(* ------------------------------------------------------------------ *)
(* Determinism and call-graph export                                   *)
(* ------------------------------------------------------------------ *)

let test_summary_cache_identity () =
  (* Two scans of the same tree render byte-identical reports. *)
  let roots = [ fixture "rx012" ] in
  let render (r : Driver.report) = Diagnostic.report_json r.findings in
  let first = Driver.scan ~roots () in
  Alcotest.(check int) "both files scanned" 2 first.files_scanned;
  Alcotest.(check string) "two scans byte-identical" (render first)
    (render (Driver.scan ~roots ()))

let test_graph_export () =
  let report = scan_fixture "rx012" in
  let g = report.graph in
  let kernel = fixture (Filename.concat "rx012" "kernel.ml") in
  Alcotest.(check bool) "kernel.ml is in the graph" true
    (Callgraph.summary_of g kernel <> None);
  Alcotest.(check bool) "kernel.ml has function nodes" true
    (List.length (Callgraph.fns_of_file g kernel) >= 7);
  let dot = Callgraph.to_dot g in
  Alcotest.(check bool) "DOT export is a digraph" true
    (contains dot "digraph");
  Alcotest.(check bool) "DOT export names the entry point" true
    (contains dot "kernel_chain");
  Alcotest.(check bool) "DOT export marks the entry blue" true
    (contains dot "color=blue");
  Alcotest.(check bool) "DOT export marks sink holders red" true
    (contains dot "color=red");
  let json = Callgraph.to_json g in
  Alcotest.(check bool) "JSON export is versioned" true
    (contains json {|"schema_version"|});
  Alcotest.(check bool) "JSON export has nodes and edges" true
    (contains json {|"nodes"|} && contains json {|"edges"|})

let test_interproc_config () =
  (* Pin the analysis configuration the repo's own clean bill of health
     depends on: the kernels are entries, the daemon compute path is an
     RX014 entry, and the pool's policy exceptions are exempt. *)
  Alcotest.(check bool) "executor is an entry file" true
    (List.mem "lib/sim/executor.ml" Interproc.entry_file_suffixes);
  Alcotest.(check bool) "montecarlo is an entry file" true
    (List.mem "lib/sim/montecarlo.ml" Interproc.entry_file_suffixes);
  Alcotest.(check bool) "daemon compute is an RX014 entry" true
    (List.mem ("lib/server/daemon.ml", "compute") Interproc.compute_entries);
  Alcotest.(check bool) "policy exceptions are exempt" true
    (List.mem "Out_of_memory" Interproc.policy_exns
    && List.mem "Worker_crash" Interproc.policy_exns);
  Alcotest.(check string) "unit names follow dune mangling" "Executor"
    (Callgraph.unit_name_of_file "lib/sim/executor.ml");
  (* Split so the linter does not read this test as a directive. *)
  Alcotest.(check string) "entry marker spelling"
    ("(* rexspeed" ^ "-lint: entry")
    Callgraph.entry_marker

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

let test_suppressed_fixture () =
  let report = scan_fixture "suppressed.ml" in
  check_findings "suppressed" report [];
  Alcotest.(check int) "one suppression counted" 1 report.suppressed

let test_bad_directive_fixture () =
  let report = Driver.scan ~roots:[ fixture "bad_directive" ] () in
  Alcotest.(check bool) "run has errors" true (report.errors <> []);
  Alcotest.(check bool) "error names the bad token" true
    (List.exists
       (fun e -> contains e "bad suppression directive" && contains e "RX0999")
       report.errors)

let test_suppress_module () =
  (* Same-line directive silences that line only. *)
  let s = Suppress.of_source ("let x = 1 (* " ^ marker ^ " RX005 *)\n") in
  Alcotest.(check bool) "RX005 active on line 1" true
    (Suppress.active s ~line:1 Diagnostic.RX005);
  Alcotest.(check bool) "RX001 untouched" false
    (Suppress.active s ~line:1 Diagnostic.RX001);
  Alcotest.(check bool) "line 2 untouched" false
    (Suppress.active s ~line:2 Diagnostic.RX005);
  (* Comment alone on its line covers the next line. *)
  let s = Suppress.of_source ("(* " ^ marker ^ " RX001 RX002 why *)\ncode\n") in
  Alcotest.(check bool) "RX001 pushed to line 2" true
    (Suppress.active s ~line:2 Diagnostic.RX001);
  Alcotest.(check bool) "RX002 pushed to line 2" true
    (Suppress.active s ~line:2 Diagnostic.RX002);
  Alcotest.(check (list (pair int string))) "no bad tokens" []
    (Suppress.bad_directives s);
  (* RX-shaped unknown tokens are reported with their line. *)
  let s = Suppress.of_source ("x\n(* " ^ marker ^ " RX0999 *)\ny\n") in
  Alcotest.(check (list (pair int string)))
    "bad token located"
    [ (2, "RX0999") ]
    (Suppress.bad_directives s)

(* ------------------------------------------------------------------ *)
(* Baseline round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_baseline_round_trip () =
  let report = scan_fixture "rx001.ml" in
  Alcotest.(check int) "fixture has findings" 2 (List.length report.findings);
  let path = Filename.temp_file "rexspeed_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.save path report.findings;
      match Baseline.load path with
      | Error e -> Alcotest.failf "baseline did not load back: %s" e
      | Ok baseline ->
          Alcotest.(check int) "one entry per finding"
            (List.length report.findings)
            (List.length baseline);
          List.iter
            (fun d ->
              Alcotest.(check bool) "finding is baselined" true
                (Baseline.mem baseline d))
            report.findings;
          let kept, baselined = Driver.apply_baseline baseline report.findings in
          Alcotest.(check int) "nothing kept" 0 (List.length kept);
          Alcotest.(check int) "all baselined" 2 (List.length baselined);
          (* An empty baseline keeps everything. *)
          let kept, baselined = Driver.apply_baseline [] report.findings in
          Alcotest.(check int) "all kept" 2 (List.length kept);
          Alcotest.(check int) "none baselined" 0 (List.length baselined))

let test_baseline_errors () =
  (match Baseline.load "no-such-baseline-file.txt" with
  | Ok _ -> Alcotest.fail "missing baseline file must be an error"
  | Error _ -> ());
  let path = Filename.temp_file "rexspeed_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# comment is fine\nnot a valid entry\n";
      close_out oc;
      match Baseline.load path with
      | Ok _ -> Alcotest.fail "malformed baseline must be an error"
      | Error e ->
          Alcotest.(check bool) "error is line-addressed" true
            (String.length e > 0 && contains e ":2"))

(* ------------------------------------------------------------------ *)
(* Diagnostics: metadata and rendering                                 *)
(* ------------------------------------------------------------------ *)

let test_rule_metadata () =
  Alcotest.(check int) "fourteen rules" 14 (List.length Diagnostic.all_rules);
  List.iter
    (fun r ->
      let id = Diagnostic.rule_id r in
      Alcotest.(check bool) (id ^ " round-trips") true
        (Diagnostic.rule_of_id id = Some r);
      Alcotest.(check bool) (id ^ " is described") true
        (String.length (Diagnostic.description r) > 0))
    Diagnostic.all_rules;
  Alcotest.(check bool) "unknown ID rejected" true
    (Diagnostic.rule_of_id "RX999" = None);
  Alcotest.(check bool) "RX001 is an error" true
    (Diagnostic.severity_of RX001 = Diagnostic.Error);
  Alcotest.(check bool) "RX008 is an error" true
    (Diagnostic.severity_of RX008 = Diagnostic.Error);
  Alcotest.(check bool) "RX006 is a warning" true
    (Diagnostic.severity_of RX006 = Diagnostic.Warning);
  Alcotest.(check bool) "RX009 is a warning" true
    (Diagnostic.severity_of RX009 = Diagnostic.Warning);
  Alcotest.(check bool) "RX010 is an error" true
    (Diagnostic.severity_of RX010 = Diagnostic.Error);
  Alcotest.(check bool) "RX011 is an error" true
    (Diagnostic.severity_of RX011 = Diagnostic.Error);
  Alcotest.(check bool) "RX012 is an error" true
    (Diagnostic.severity_of RX012 = Diagnostic.Error);
  Alcotest.(check bool) "RX013 is an error" true
    (Diagnostic.severity_of RX013 = Diagnostic.Error);
  Alcotest.(check bool) "RX014 is an error" true
    (Diagnostic.severity_of RX014 = Diagnostic.Error)

let test_rendering () =
  let d = Diagnostic.make RX001 ~file:"f.ml" ~line:2 ~col:4 "msg" in
  Alcotest.(check string) "text form" "f.ml:2:4: error RX001 msg"
    (Diagnostic.to_text d);
  Alcotest.(check string) "json form"
    {|{"rule":"RX001","severity":"error","file":"f.ml","line":2,"col":4,"message":"msg"}|}
    (Diagnostic.to_json d);
  let tricky =
    Diagnostic.make RX009 ~file:{|a"b.mli|} ~line:1 ~col:0 "back\\slash\nnl"
  in
  Alcotest.(check string) "json escaping"
    {|{"rule":"RX009","severity":"warning","file":"a\"b.mli","line":1,"col":0,"message":"back\\slash\nnl"}|}
    (Diagnostic.to_json tricky);
  let chained =
    Diagnostic.make
      ~chain:
        [ ("a.ml", 3, "calls A.f"); ("b.ml", 7, "Random sink (RX001) in B.g") ]
      RX012 ~file:"e.ml" ~line:1 ~col:0 "msg"
  in
  Alcotest.(check string) "chain renders in order, sink last"
    ({|{"rule":"RX012","severity":"error","file":"e.ml","line":1,"col":0,|}
   ^ {|"message":"msg","chain":[{"file":"a.ml","line":3,"note":"calls A.f"},|}
   ^ {|{"file":"b.ml","line":7,"note":"Random sink (RX001) in B.g"}]}|})
    (Diagnostic.to_json chained);
  Alcotest.(check string) "empty report"
    {|{"schema_version":2,"findings":[],"count":0}|}
    (Diagnostic.report_json []);
  let two = Diagnostic.report_json [ d; d ] in
  Alcotest.(check string) "report wraps findings"
    ({|{"schema_version":2,"findings":[|} ^ Diagnostic.to_json d ^ ","
   ^ Diagnostic.to_json d ^ {|],"count":2}|})
    two

let test_allowlist () =
  Alcotest.(check bool) "metrics.ml may read the clock" true
    (Rules.allowlisted Diagnostic.RX002 "lib/server/metrics.ml");
  Alcotest.(check bool) "bench may read the clock" true
    (Rules.allowlisted Diagnostic.RX002 "bench/main.ml");
  Alcotest.(check bool) "metrics.ml may fold its table" true
    (Rules.allowlisted Diagnostic.RX004 "lib/server/metrics.ml");
  Alcotest.(check bool) "no RX001 exemptions" false
    (Rules.allowlisted Diagnostic.RX001 "lib/server/metrics.ml");
  Alcotest.(check bool) "the daemon is not exempt" false
    (Rules.allowlisted Diagnostic.RX002 "lib/server/daemon.ml");
  Alcotest.(check bool) "trace clock may read the clock" true
    (Rules.allowlisted Diagnostic.RX002 "lib/trace/clock.ml");
  Alcotest.(check bool) "trace clock is exempt from RX010" true
    (Rules.allowlisted Diagnostic.RX010 "lib/trace/clock.ml");
  Alcotest.(check bool) "the tracer is not exempt" false
    (Rules.allowlisted Diagnostic.RX010 "lib/trace/tracer.ml");
  Alcotest.(check bool) "the connection layer may call Unix.read" true
    (Rules.allowlisted Diagnostic.RX011 "lib/server/conn.ml");
  Alcotest.(check bool) "the daemon is not exempt from RX011" false
    (Rules.allowlisted Diagnostic.RX011 "lib/server/daemon.ml");
  Alcotest.(check bool) "the CLI test client may call Unix.read" true
    (Rules.allowlisted Diagnostic.RX011 "test/cli/serve_client.ml");
  Alcotest.(check bool) "the pool is not exempt from RX011" false
    (Rules.allowlisted Diagnostic.RX011 "lib/parallel/pool.ml")

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "RX001 global PRNG" `Quick test_rx001;
          Alcotest.test_case "RX002 wall clock" `Quick test_rx002;
          Alcotest.test_case "RX003 domain identity" `Quick test_rx003;
          Alcotest.test_case "RX004 hashtbl order" `Quick test_rx004;
          Alcotest.test_case "RX005 float comparison" `Quick test_rx005;
          Alcotest.test_case "RX006 zero-allowed division" `Quick test_rx006;
          Alcotest.test_case "RX007 exp/log composition" `Quick test_rx007;
          Alcotest.test_case "RX008 catch-all handler" `Quick test_rx008;
          Alcotest.test_case "RX009 dead export" `Quick test_rx009;
          Alcotest.test_case "RX010 trace emission purity" `Quick test_rx010;
          Alcotest.test_case "RX011 blocking socket I/O" `Quick test_rx011;
          Alcotest.test_case "RX011 alias resolution" `Quick
            test_rx011_alias_resolution;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "RX012 nondeterminism taint" `Quick test_rx012;
          Alcotest.test_case "RX012 propagation chain" `Quick test_rx012_chain;
          Alcotest.test_case "RX013 shared-state races" `Quick test_rx013;
          Alcotest.test_case "RX014 exception escape" `Quick test_rx014;
          Alcotest.test_case "summary cache byte-identity" `Quick
            test_summary_cache_identity;
          Alcotest.test_case "call-graph export" `Quick test_graph_export;
          Alcotest.test_case "analysis configuration" `Quick
            test_interproc_config;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "fixture is silenced" `Quick
            test_suppressed_fixture;
          Alcotest.test_case "bad directive fails the run" `Quick
            test_bad_directive_fixture;
          Alcotest.test_case "directive scoping" `Quick test_suppress_module;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "load errors" `Quick test_baseline_errors;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "rule metadata" `Quick test_rule_metadata;
          Alcotest.test_case "text and json rendering" `Quick test_rendering;
          Alcotest.test_case "allowlist" `Quick test_allowlist;
        ] );
    ]
