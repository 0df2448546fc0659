(* The runtime-control-loop bench behind `dune exec bench/main.exe -- runtime`:
   drives generated traces through the engine under each policy (oracle
   on), writes BENCH_runtime.json, and gates the policy tradeoffs the
   runtime exists to provide:

   - determinism: two identical immediate-policy runs must produce the
     same report digest;
   - every intermediate deployment must pass the placement oracle (the
     engine errors out otherwise);
   - debouncing must pay for itself: >= 2x fewer reconfigurations than
     the immediate policy, for a bounded violation-seconds premium;
   - forecasting must pay for itself: over a diurnal + flash-crowd
     corpus, the proactive policy accrues no more violation-seconds
     than debounced while issuing at most half of immediate's
     reconfigurations;
   - the move budget must hold: every non-exempt reconfiguration in a
     budgeted run re-homes at most [budget] chains, the capped path is
     actually exercised, and the whole budgeted corpus is
     digest-deterministic at any [-j].

   Reconfiguration and violation counts are deterministic given the
   seeds; decision-latency numbers are wall clock and reported for
   trending only. [--quick] shrinks every corpus for CI smoke. *)

module Trace = Lemur_runtime.Trace
module Engine = Lemur_runtime.Engine
module Policy = Lemur_runtime.Policy
module Report = Lemur_runtime.Report
module Json = Lemur_telemetry.Json
module Kit = Bench_kit

let default_seed = 11
let default_events = 200

(* The debounced policy may spend at most this many extra chain-seconds
   in violation compared to immediate, per chain-second immediate spends
   plus an absolute floor — "bounded" from the acceptance criteria made
   concrete. *)
let violation_premium_abs = 0.10
let violation_premium_rel = 1.5

(* One engine run, oracle on: every intermediate deployment is checked. *)
let drive_trace ?move_budget ?incremental ~seed policy trace =
  let cfg =
    Engine.default_config ~policy ~seed ~check:Lemur_check.Runtime_check.checker
      ?move_budget ?incremental ()
  in
  match Engine.run cfg trace with
  | Ok (report, _) -> Ok report
  | Error e -> Error (Engine.error_to_string e)

let latency_stats latencies =
  match latencies with
  | [] -> (0.0, 0.0, 0.0)
  | l ->
      let sorted = List.sort Float.compare l in
      let n = List.length sorted in
      let mean = List.fold_left ( +. ) 0.0 sorted /. float_of_int n in
      let nth p = List.nth sorted (min (n - 1) (p * n / 100)) in
      (mean, nth 50, nth 99)

let policy_json name (r : Report.t) digest =
  let mean, p50, p99 = latency_stats r.Report.decision_latency_s in
  Json.Obj
    [
      ("policy", Json.String name);
      ("reconfigs", Json.Int r.Report.reconfigs);
      ("events_applied", Json.Int r.Report.events_applied);
      ("events_rejected", Json.Int r.Report.events_rejected);
      ("epochs", Json.Int r.Report.epochs);
      ("violation_s", Json.Float r.Report.total_violation_s);
      ("marginal_bits", Json.Float r.Report.total_marginal_bits);
      ("decision_latency_mean_s", Json.Float mean);
      ("decision_latency_p50_s", Json.Float p50);
      ("decision_latency_p99_s", Json.Float p99);
      ("digest", Json.String digest);
      ( "stop",
        Json.String
          (match r.Report.stop with
          | Report.Completed -> "completed"
          | Report.Aborted _ -> "aborted") );
    ]

(* ------------------------------------------------------------------ *)
(* Proactive corpus: the forecasting story. Diurnal ramps and flash
   crowds, each driven under immediate / debounced / proactive; gates
   are on corpus sums. *)

let corpus_specs ~quick =
  let diurnal = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let flash = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  List.map (fun s -> (Trace.Diurnal, s, 40)) diurnal
  @ List.map (fun s -> (Trace.Flash_crowd, s, 50)) flash

let corpus_policies =
  [
    ("immediate", Policy.Immediate);
    ("debounced", Policy.default_debounced);
    ("proactive", Policy.default_proactive);
  ]

type corpus_row = {
  cr_kind : Trace.kind;
  cr_seed : int;
  cr_results : (string * Report.t) list;  (* in corpus_policies order *)
}

let run_corpus ~quick =
  let rows =
    List.map
      (fun (kind, seed, events) ->
        let trace = Trace.generate ~events ~kind ~seed () in
        let results =
          List.map
            (fun (name, p) ->
              match drive_trace ~seed p trace with
              | Ok r -> (name, r)
              | Error e ->
                  failwith
                    (Printf.sprintf "%s seed %d under %s: %s"
                       (Trace.kind_to_string kind) seed name e))
            corpus_policies
        in
        { cr_kind = kind; cr_seed = seed; cr_results = results })
      (corpus_specs ~quick)
  in
  let total name f =
    List.fold_left (fun acc row -> acc +. f (List.assoc name row.cr_results)) 0.0 rows
  in
  let total_i name f =
    List.fold_left (fun acc row -> acc + f (List.assoc name row.cr_results)) 0 rows
  in
  let viol name = total name (fun r -> r.Report.total_violation_s) in
  let reconfigs name = total_i name (fun r -> r.Report.reconfigs) in
  let proactive_viol = viol "proactive"
  and debounced_viol = viol "debounced"
  and proactive_rc = reconfigs "proactive"
  and immediate_rc = reconfigs "immediate" in
  let viol_ok = proactive_viol <= debounced_viol in
  let rc_ok = 2 * proactive_rc <= immediate_rc in
  let table =
    Lemur_util.Texttable.create
      ~headers:
        [
          "trace"; "immediate rc/viol"; "debounced rc/viol";
          "proactive rc/viol";
        ]
  in
  List.iter
    (fun row ->
      let cell name =
        let r = List.assoc name row.cr_results in
        Printf.sprintf "%d / %.4f" r.Report.reconfigs
          r.Report.total_violation_s
      in
      Lemur_util.Texttable.add_row table
        [
          Printf.sprintf "%s:%d" (Trace.kind_to_string row.cr_kind) row.cr_seed;
          cell "immediate"; cell "debounced"; cell "proactive";
        ])
    rows;
  Lemur_util.Texttable.print table;
  Printf.printf
    "proactive corpus: violation %.4f vs debounced %.4f chain-s (%s); \
     reconfigs %d vs immediate %d (%s)\n"
    proactive_viol debounced_viol
    (if viol_ok then "ok, <=" else "FAILED: >")
    proactive_rc immediate_rc
    (if rc_ok then "ok, <=50%" else "FAILED: >50%");
  let json =
    Json.Obj
      [
        ( "traces",
          Json.List
            (List.map
               (fun row ->
                 Json.Obj
                   [
                     ("kind", Json.String (Trace.kind_to_string row.cr_kind));
                     ("seed", Json.Int row.cr_seed);
                     ( "policies",
                       Json.List
                         (List.map
                            (fun (name, r) ->
                              policy_json name r (Report.digest r))
                            row.cr_results) );
                   ])
               rows) );
        ("proactive_violation_s", Json.Float proactive_viol);
        ("debounced_violation_s", Json.Float debounced_viol);
        ("proactive_reconfigs", Json.Int proactive_rc);
        ("immediate_reconfigs", Json.Int immediate_rc);
        ("violation_ok", Json.Bool viol_ok);
        ("reconfig_ratio_ok", Json.Bool rc_ok);
      ]
  in
  ( json,
    [
      Kit.gate "proactive_violation_ok" viol_ok
        "proactive accrued more violation-seconds than debounced on its corpus";
      Kit.gate "proactive_reconfig_ratio_ok" rc_ok
        "proactive issued more than half of immediate's reconfigurations";
    ] )

(* ------------------------------------------------------------------ *)
(* Move-budget corpus: traces whose re-placements re-home chains,
   driven under a budget. Gates: every non-exempt Reconfigured entry
   respects the budget, the capped path fires at least once across the
   corpus, and the digests are identical whether the corpus is
   evaluated on 1 domain or [jobs]. *)

let budget_specs ~quick =
  let specs =
    [
      (Trace.Failure_burst, 2, 50, 0);
      (Trace.Failure_burst, 7, 50, 0);
      (Trace.Churn, 5, 50, 0);
      (Trace.Failure_burst, 2, 50, 1);
    ]
  in
  if quick then [ List.hd specs; List.nth specs 3 ] else specs

let run_budget ~quick ~jobs =
  let specs = budget_specs ~quick in
  let eval (kind, seed, events, budget) =
    let trace = Trace.generate ~events ~kind ~seed () in
    match
      drive_trace ~move_budget:budget ~seed Policy.Immediate trace
    with
    | Ok r -> r
    | Error e ->
        failwith
          (Printf.sprintf "budgeted %s seed %d: %s"
             (Trace.kind_to_string kind) seed e)
  in
  let v =
    Kit.corpus_versus ~label:"move budget determinism" ~jobs
      ~lines:(List.map Report.digest) eval specs
  in
  (match Kit.crashes v with
  | [] -> ()
  | crashes -> failwith (String.concat "; " crashes));
  let serial = v.Kit.seq.Kit.value.Kit.runs in
  let cap_respected =
    List.for_all2
      (fun (_, _, _, budget) (r : Report.t) ->
        List.for_all
          (function
            | Report.Reconfigured { moves; exempt = false; _ } ->
                moves <= budget
            | _ -> true)
          r.Report.journal)
      specs serial
  in
  let capped_total =
    List.fold_left (fun acc (r : Report.t) -> acc + r.Report.moves_capped) 0 serial
  in
  let capped_fired = capped_total > 0 in
  List.iter2
    (fun (kind, seed, _, budget) (r : Report.t) ->
      Printf.printf
        "move budget %d on %s:%d: %d reconfigs, %d chains moved, %d capped\n"
        budget (Trace.kind_to_string kind) seed r.Report.reconfigs
        r.Report.moves_total r.Report.moves_capped)
    specs serial;
  Printf.printf "move budget: cap %s, capped path %s (%d capped)\n"
    (if cap_respected then "respected" else "VIOLATED")
    (if capped_fired then "exercised" else "NEVER FIRED")
    capped_total;
  let json =
    Json.Obj
      [
        ( "runs",
          Json.List
            (List.map2
               (fun (kind, seed, events, budget) (r : Report.t) ->
                 Json.Obj
                   [
                     ("kind", Json.String (Trace.kind_to_string kind));
                     ("seed", Json.Int seed);
                     ("events", Json.Int events);
                     ("budget", Json.Int budget);
                     ("reconfigs", Json.Int r.Report.reconfigs);
                     ("moves_total", Json.Int r.Report.moves_total);
                     ("moves_capped", Json.Int r.Report.moves_capped);
                     ("digest", Json.String (Report.digest r));
                   ])
               specs serial) );
        ("cap_respected", Json.Bool cap_respected);
        ("capped_fired", Json.Bool capped_fired);
        ("jobs", Json.Int jobs);
        ("digests_equal", Json.Bool v.Kit.digests_equal);
      ]
  in
  ( json,
    [
      Kit.gate "move_budget_cap_respected" cap_respected
        "a budgeted reconfiguration re-homed more chains than its budget";
      Kit.gate "move_budget_capped_fired" capped_fired
        "the capped re-placement path never fired on the budget corpus";
      Kit.gate "move_budget_digests_equal" v.Kit.digests_equal
        (Printf.sprintf "budget-corpus digests differ between -j 1 and -j %d"
           jobs);
    ] )

(* ------------------------------------------------------------------ *)

(* Incremental re-placement vs from-scratch: a dedicated demand-churn
   trace — longer chains than the policy trace, so a re-solve actually
   has pattern search and coalescing to redo — driven twice under the
   immediate policy (oracle on), caches dropped before each run so
   neither inherits warmth. The incremental engine keeps the structural
   memo and variant cache across re-placements (demand events leave
   every chain clean, so the whole pattern search replays from cache);
   the from-scratch one clears them inside every timed decision.
   Placements — and therefore report digests — must be byte-identical:
   the caches only change how fast the same answer is derived. *)
let resolve_trace ~quick ~seed =
  let topo =
    {
      Trace.servers = 3;
      cores_per_socket = 8;
      smartnic = true;
      ofswitch = false;
      no_pisa = false;
      metron = false;
    }
  in
  let chains =
    [
      "r0 slo(tmin='2.0Gbps', tmax='40Gbps') = ACL -> Monitor -> NAT -> \
       Encrypt -> Tunnel -> IPv4Fwd";
      "r1 slo(tmin='1.5Gbps', tmax='40Gbps') = BPF -> ACL -> Monitor -> NAT \
       -> Tunnel -> IPv4Fwd";
      "r2 slo(tmin='1.0Gbps', tmax='40Gbps') = Monitor -> ACL -> NAT -> \
       Encrypt -> IPv4Fwd";
    ]
  in
  let prng = Lemur_util.Prng.create ~seed in
  let t = ref 0.0 in
  let n = if quick then 40 else 120 in
  let events =
    List.init n (fun i ->
        t := !t +. 0.005;
        let chain_id = Printf.sprintf "r%d" (i mod 3) in
        let rate = float_of_int (5 + Lemur_util.Prng.int prng 200) *. 1e8 in
        { Trace.at = !t; action = Trace.Traffic { chain_id; rate } })
  in
  { Trace.seed = None; topo; chains; windows = []; events; horizon = !t +. 0.01 }

let run_incremental ~quick ~seed =
  let trace = resolve_trace ~quick ~seed in
  let drive ~incremental =
    Lemur_placer.Memo.clear ();
    Lemur_placer.Strategy.clear_variant_cache ();
    drive_trace ~incremental ~seed Policy.Immediate trace
  in
  match (drive ~incremental:true, drive ~incremental:false) with
  | Error e, _ | _, Error e -> (false, Json.Obj [ ("error", Json.String e) ])
  | Ok inc, Ok scratch ->
      let inc_mean, _, _ = latency_stats inc.Report.decision_latency_s in
      let scratch_mean, _, _ = latency_stats scratch.Report.decision_latency_s in
      let resolve_speedup =
        if inc_mean > 0.0 then scratch_mean /. inc_mean else 0.0
      in
      let digests_equal =
        String.equal (Report.digest inc) (Report.digest scratch)
      in
      Printf.printf
        "incremental re-placement: mean decision %.2f ms vs %.2f ms from \
         scratch (%.2fx), digests %s\n"
        (inc_mean *. 1000.0) (scratch_mean *. 1000.0) resolve_speedup
        (if digests_equal then "identical" else "MISMATCH");
      ( digests_equal,
        Json.Obj
          [
            ("reconfigs", Json.Int inc.Report.reconfigs);
            ("incremental_decision_mean_s", Json.Float inc_mean);
            ("scratch_decision_mean_s", Json.Float scratch_mean);
            ("resolve_speedup", Json.Float resolve_speedup);
            ("digests_equal", Json.Bool digests_equal);
            ("incremental_digest", Json.String (Report.digest inc));
          ] )

let main args =
  let seed = ref default_seed and events = ref None and quick = ref false
  and jobs = ref 2 in
  Kit.main ~cmd:"runtime" ~out:"BENCH_runtime.json"
    ~specs:
      (Kit.seed seed
      @ Kit.size "--events" "trace events (default 200, --quick 60)" events
      @ Kit.quick quick @ Kit.jobs jobs)
    args
  @@ fun () ->
  let quick = !quick and seed = !seed and jobs = !jobs in
  let events =
    Option.value !events ~default:(if quick then 60 else default_events)
  in
  let trace = Trace.generate ~events ~seed () in
  Printf.printf
    "## runtime: control-loop policies on trace seed %d (%d events, %d \
     chains, %.3fs horizon)\n"
    seed events
    (List.length trace.Trace.chains)
    trace.Trace.horizon;
  let drive policy = drive_trace ~seed policy trace in
  let results =
    List.map
      (fun (name, p) ->
        match drive p with
        | Ok r -> (name, r)
        | Error e -> failwith (name ^ ": " ^ e))
      [
        ("immediate", Policy.Immediate);
        ("debounced", Policy.default_debounced);
        ("scheduled", Policy.Scheduled);
      ]
  in
  let digest name = Report.digest (List.assoc name results) in
  (* determinism gate: replay immediate and compare digests *)
  let replay_digest =
    match drive Policy.Immediate with Ok r -> Report.digest r | Error e -> e
  in
  let table =
    Lemur_util.Texttable.create
      ~headers:
        [
          "policy"; "reconfigs"; "violation (chain-s)"; "marginal (Gbit)";
          "decision mean (ms)";
        ]
  in
  List.iter
    (fun (name, (r : Report.t)) ->
      let mean, _, _ = latency_stats r.Report.decision_latency_s in
      Lemur_util.Texttable.add_row table
        [
          name;
          string_of_int r.Report.reconfigs;
          Printf.sprintf "%.4f" r.Report.total_violation_s;
          Printf.sprintf "%.2f" (r.Report.total_marginal_bits /. 1e9);
          Printf.sprintf "%.2f" (mean *. 1000.0);
        ])
    results;
  Lemur_util.Texttable.print table;
  let imm = List.assoc "immediate" results in
  let deb = List.assoc "debounced" results in
  let deterministic = String.equal (digest "immediate") replay_digest in
  let incremental_ok, incremental_json = run_incremental ~quick ~seed in
  let ratio_ok = deb.Report.reconfigs * 2 <= imm.Report.reconfigs in
  let budget =
    violation_premium_abs
    +. (violation_premium_rel *. imm.Report.total_violation_s)
  in
  let premium_ok = deb.Report.total_violation_s <= budget in
  Printf.printf
    "determinism: %s\nreconfig ratio: %d vs %d (%s)\n\
     violation premium: %.4f vs budget %.4f chain-s (%s)\n"
    (if deterministic then "ok" else "DIGEST MISMATCH")
    imm.Report.reconfigs deb.Report.reconfigs
    (if ratio_ok then "ok, >=2x fewer" else "FAILED: < 2x")
    deb.Report.total_violation_s budget
    (if premium_ok then "ok" else "FAILED");
  let proactive_json, proactive_gates = run_corpus ~quick in
  let budget_json, budget_gates = run_budget ~quick ~jobs in
  {
    Kit.schema = "lemur.bench.runtime/2";
    fields =
      [
        ("trace_seed", Json.Int seed);
        ("trace_events", Json.Int events);
        ("quick", Json.Bool quick);
        ("horizon_s", Json.Float trace.Trace.horizon);
        ( "policies",
          Json.List
            (List.map
               (fun (name, r) -> policy_json name r (digest name))
               results)
        );
        ("incremental", incremental_json);
        ("proactive_corpus", proactive_json);
        ("move_budget", budget_json);
      ];
    gates =
      [
        Kit.gate "deterministic" deterministic
          "replaying the immediate policy changed its report digest";
        Kit.gate "reconfig_ratio_ok" ratio_ok
          "debounced did not reconfigure >= 2x less often than immediate";
        Kit.gate "violation_premium_ok" premium_ok
          "debounced exceeded its violation-seconds budget";
        Kit.gate "incremental_digests_equal" incremental_ok
          "incremental re-placement diverged from from-scratch (or errored)";
      ]
      @ proactive_gates @ budget_gates;
  }
