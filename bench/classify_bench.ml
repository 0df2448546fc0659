(* The classifier bench behind `dune exec bench/main.exe -- classify`:
   generates seeded rulesets at several sizes, builds all three
   classifiers over each, and gates three properties into
   BENCH_classify.json:

   - agreement (hard gate): on every corpus header, the tuple-space
     and computed classifiers return exactly the rule the priority
     linear scan returns;
   - speedup (hard gate): at the largest size, the computed index's
     wall-clock lookups/sec beats the linear scan's by at least 5x —
     the NuevoMatchUP-direction claim this subsystem models;
   - determinism (hard gate): the corpus digest — matched rule ids and
     modeled cycle costs, folded in size order — at -j N must be
     byte-identical to -j 1.

   The headline metric is wall-clock lookups/sec per algorithm per
   ruleset size; the modeled cycle costs (what the profiler feeds the
   placer, see docs/CLASSIFIER.md) land in the JSON next to them. *)

open Lemur_classifier
module Kit = Bench_kit
module Timing = Lemur_util.Timing
module Json = Lemur_telemetry.Json

type algo_result = {
  a_algo : Classifier.algo;
  a_lookups : int;
  a_wall : float;  (* seconds, wall clock over [a_lookups] lookups *)
  a_mean_cycles : float;  (* modeled, over the corpus *)
  a_worst_cycles : float;  (* modeled, over the corpus *)
  a_structure : string;
}

type size_result = {
  s_size : int;
  s_build_wall : float array;  (* per algo, [Classifier.all_algos] order *)
  s_algos : algo_result list;
  s_mismatches : int;  (* corpus headers where any algo disagrees *)
  s_digest_line : string;
}

(* Walk the corpus with the silent [Classifier.cost] so the timed loop
   measures lookups, not atomic counter traffic. Returns wall seconds;
   the fold result is kept live so the loop cannot be dead-code
   eliminated. *)
let time_lookups cls corpus ~passes =
  let t0 = Timing.now () in
  let acc = ref 0.0 in
  for _ = 1 to passes do
    Array.iter
      (fun h -> acc := !acc +. (Classifier.cost cls h).Classifier.o_cycles)
      corpus
  done;
  let wall = Timing.elapsed t0 in
  ignore (Sys.opaque_identity !acc);
  (wall, passes * Array.length corpus)

let run_size ~quick size =
  let rs = Ruleset.generate ~size () in
  let corpus = Ruleset.headers rs ~flows:(if quick then 256 else 2048) in
  let built =
    List.map
      (fun algo ->
        let t0 = Timing.now () in
        let cls = Classifier.build algo rs in
        (algo, cls, Timing.elapsed t0))
      Classifier.all_algos
  in
  (* Agreement + digest in one deterministic pass: matched ids and
     modeled cycles only, never wall-clock. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (string_of_int size);
  let mismatches = ref 0 in
  Array.iter
    (fun h ->
      let ids =
        List.map
          (fun (_, cls, _) ->
            let o = Classifier.cost cls h in
            ( (match o.Classifier.o_rule with
              | Some r -> r.Rule.id
              | None -> -1),
              int_of_float o.Classifier.o_cycles ))
          built
      in
      (match ids with
      | (lin_id, _) :: rest ->
          if List.exists (fun (id, _) -> id <> lin_id) rest then
            incr mismatches
      | [] -> ());
      List.iter
        (fun (id, cy) -> Buffer.add_string buf (Printf.sprintf "|%d:%d" id cy))
        ids)
    corpus;
  (* Lookups/sec: enough passes over the corpus that even the computed
     index accumulates measurable wall time. *)
  let passes algo =
    match algo with
    | Classifier.Linear_scan -> if quick then 1 else max 1 (200_000 / size)
    | Classifier.Tuple_space | Classifier.Computed -> if quick then 8 else 40
  in
  let algos =
    List.map
      (fun (algo, cls, _) ->
        let wall, lookups = time_lookups cls corpus ~passes:(passes algo) in
        {
          a_algo = algo;
          a_lookups = lookups;
          a_wall = wall;
          a_mean_cycles = Classifier.mean_cycles cls corpus;
          a_worst_cycles = Classifier.worst_cycles cls corpus;
          a_structure = Classifier.describe cls;
        })
      built
  in
  {
    s_size = size;
    s_build_wall = Array.of_list (List.map (fun (_, _, w) -> w) built);
    s_algos = algos;
    s_mismatches = !mismatches;
    s_digest_line = Buffer.contents buf;
  }

let rate a = if a.a_wall > 0.0 then float_of_int a.a_lookups /. a.a_wall else 0.0

let algo_json a =
  Json.Obj
    [
      ("algo", Json.String (Classifier.algo_name a.a_algo));
      ("lookups", Json.Int a.a_lookups);
      ("wall_s", Json.Float a.a_wall);
      ("lookups_per_sec", Json.Float (rate a));
      ("mean_cycles", Json.Float a.a_mean_cycles);
      ("worst_cycles", Json.Float a.a_worst_cycles);
      ("structure", Json.String a.a_structure);
    ]

let size_json s =
  Json.Obj
    [
      ("rules", Json.Int s.s_size);
      ("mismatches", Json.Int s.s_mismatches);
      ( "build_wall_s",
        Json.List
          (List.map (fun w -> Json.Float w) (Array.to_list s.s_build_wall)) );
      ("algos", Json.List (List.map algo_json s.s_algos));
    ]

let find_rate s algo =
  match List.find_opt (fun a -> a.a_algo = algo) s.s_algos with
  | Some a -> rate a
  | None -> 0.0

(* "--sizes 1000,10000": a comma-separated list of positive ruleset sizes. *)
let sizes_flag r =
  let parse v =
    let sizes = List.map int_of_string_opt (String.split_on_char ',' v) in
    if List.for_all (function Some n -> n >= 1 | None -> false) sizes then
      r := Some (List.map Option.get sizes)
    else
      raise
        (Arg.Bad (Printf.sprintf "--sizes %S: expected N,N,.. with N >= 1" v))
  in
  [ ("--sizes", Arg.String parse, "N,N,.. ruleset sizes") ]

let main args =
  let quick = ref false and sizes = ref None in
  let jobs = ref (Kit.default_jobs ()) in
  Kit.main ~cmd:"classify" ~out:"BENCH_classify.json"
    ~specs:(Kit.quick quick @ sizes_flag sizes @ Kit.jobs jobs)
    args
  @@ fun () ->
  let sizes =
    match !sizes with
    | Some s -> s
    | None -> if !quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ]
  in
  let jobs = !jobs in
  Printf.printf
    "## classify: rulesets %s, linear vs tuple-space vs computed, %s\n%!"
    (String.concat "/" (List.map string_of_int sizes))
    (Kit.jobs_note jobs);
  let v =
    Kit.corpus_versus ~jobs
      ~lines:(List.map (fun s -> s.s_digest_line))
      (run_size ~quick:!quick) sizes
  in
  let crashes = Kit.crashes v in
  let par_runs = v.Kit.par.Kit.value.Kit.runs in
  List.iter
    (fun s ->
      Printf.printf "  %7d rules%s\n" s.s_size
        (if s.s_mismatches = 0 then ""
         else Printf.sprintf "  %d AGREEMENT MISMATCHES" s.s_mismatches);
      List.iter
        (fun a ->
          Printf.printf
            "    %-12s %12.0f lookups/s   mean %8.0f cy   worst %8.0f cy   %s\n"
            (Classifier.algo_name a.a_algo)
            (rate a) a.a_mean_cycles a.a_worst_cycles a.a_structure)
        s.s_algos)
    par_runs;
  let agreement = List.for_all (fun s -> s.s_mismatches = 0) par_runs in
  let top =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some t when t.s_size >= s.s_size -> acc
        | _ -> Some s)
      None par_runs
  in
  let speedup =
    match top with
    | None -> 0.0
    | Some s ->
        let lin = find_rate s Classifier.Linear_scan in
        let nuevo = find_rate s Classifier.Computed in
        if lin > 0.0 then nuevo /. lin else 0.0
  in
  let speedup_ok = speedup >= 5.0 in
  let top_size = match top with Some s -> s.s_size | None -> 0 in
  Printf.printf "agreement: %s\n"
    (if agreement then "ok, all three classifiers identical on every header"
     else "MISMATCH");
  Printf.printf "speedup: computed %.1fx linear at %d rules (gate: >= 5x) %s\n"
    speedup top_size
    (if speedup_ok then "ok" else "FAILED");
  {
    Kit.schema = "lemur.bench.classify/1";
    fields =
      [
        ("quick", Json.Bool !quick);
        ("jobs", Json.Int jobs);
        ("sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
        ("runs", Json.List (List.map size_json par_runs));
        ("speedup_computed_vs_linear_at_top", Json.Float speedup);
        ("digest", Json.String v.Kit.par.Kit.digest);
        ("crashes", Json.List (List.map (fun m -> Json.String m) crashes));
      ];
    gates =
      [
        Kit.gate "agreement" agreement
          "a classifier disagreed with the linear scan";
        Kit.gate "speedup_ok" speedup_ok
          (Printf.sprintf "computed index only %.1fx linear at %d rules (< 5x)"
             speedup top_size);
        Kit.digest_gate v;
        Kit.crash_gate crashes;
      ];
  }
