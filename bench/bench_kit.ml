(* The scaffolding every gated bench driver shares: one flag parser, one
   -j 1 vs -j N runner, one gate list and one report writer. A driver
   keeps only its workload, its gate predicates and its own JSON fields;
   docs/PERFORMANCE.md documents the flags, the gates and the exit codes
   (0 every gate holds, 1 a gate failed or the workload errored, 2 a
   usage error). *)

module Pool = Lemur_util.Pool
module Timing = Lemur_util.Timing
module Json = Lemur_telemetry.Json

let host_domains = Pool.recommended_domains

(* The -j default of the drivers that compare -j 1 against a fan-out:
   at least two domains, so the comparison is never -j 1 vs -j 1. *)
let default_jobs () = max 2 (host_domains ())

(* ------------------------------------------------------------------ *)
(* Flags: each helper returns the [Arg] specs of one flag. *)

let positive key set =
  Arg.Int
    (fun n ->
      if n < 1 then
        raise (Arg.Bad (Printf.sprintf "%s %d: must be at least 1" key n));
      set n)

let quick r =
  [ ("--quick", Arg.Set r, " CI-smoke sizes; explicit sizes still win") ]

let seed r =
  [ ("--seed", Arg.Set_int r, Printf.sprintf "N first seed (default %d)" !r) ]

let size key doc r = [ (key, positive key (fun n -> r := Some n), "N " ^ doc) ]
let count r = size "--count" "corpus size" r

let jobs r =
  [
    ( "-j",
      positive "-j" (fun j -> r := j),
      Printf.sprintf "N domains for the fanned-out run (default %d)" !r );
    ("--jobs", positive "--jobs" (fun j -> r := j), "N same as -j");
  ]

(* ------------------------------------------------------------------ *)
(* The -j 1 vs -j N runner *)

type 'a side = { value : 'a; wall : float; digest : string }

type 'a versus = {
  jobs : int;
  seq : 'a side;
  par : 'a side;
  digests_equal : bool;
}

(* Run the workload at -j 1 and at -j [jobs], timing each and printing
   one line per side and the [label] line (default "determinism") that
   states whether the two digests are byte-identical. *)
let versus ?(label = "determinism") ~jobs ~digest run =
  let side jobs =
    let t0 = Timing.now () in
    let value = run ~jobs in
    let wall = Timing.elapsed t0 in
    let digest = digest value in
    Printf.printf "  -j %d: %.2fs, digest %s\n%!" jobs wall digest;
    { value; wall; digest }
  in
  let seq = side 1 in
  let par = side jobs in
  let digests_equal = String.equal seq.digest par.digest in
  Printf.printf "%s: %s\n%!" label
    (if digests_equal then
       Printf.sprintf "ok, digest %s identical at -j 1 and -j %d" par.digest
         jobs
     else
       Printf.sprintf "DIGEST MISMATCH (-j 1: %s, -j %d: %s)" seq.digest jobs
         par.digest);
  { jobs; seq; par; digests_equal }

(* "-j 1 vs -j N (host reports D domain(s))", for a driver's header line. *)
let jobs_note jobs =
  Printf.sprintf "-j 1 vs -j %d (host reports %d domain(s))" jobs
    (host_domains ())

(* A corpus fanned out over the pool: the items that finished, and the
   messages of the ones that raised. *)
type 'a corpus = { runs : 'a list; crashes : string list }

let crashes v = v.seq.value.crashes @ v.par.value.crashes

(* [versus] over a [Pool.map] of [f] on [items]: the digest hashes the
   [lines] of the runs that finished, in corpus order, and every crash
   of either side is printed. *)
let corpus_versus ?label ~jobs ~lines f items =
  let run ~jobs =
    let results = Pool.map ~domains:jobs f items in
    {
      runs = List.filter_map Result.to_option results;
      crashes =
        List.filter_map
          (function
            | Ok _ -> None | Error (e : Pool.job_error) -> Some e.Pool.message)
          results;
    }
  in
  let digest c =
    Digest.to_hex (Digest.string (String.concat "\n" (lines c.runs)))
  in
  let v = versus ?label ~jobs ~digest run in
  List.iter (fun m -> Printf.printf "  CRASH: %s\n" m) (crashes v);
  v

(* ------------------------------------------------------------------ *)
(* Gates and the report *)

type gate = { key : string; ok : bool; failure : string }

let gate key ok failure = { key; ok; failure }

let digest_gate v =
  gate "digests_equal" v.digests_equal
    (Printf.sprintf "digests differ between -j 1 and -j %d" v.jobs)

let crash_gate crashes =
  gate "crash_free" (crashes = [])
    (Printf.sprintf "%d pool job(s) crashed" (List.length crashes))

type report = {
  schema : string;
  fields : (string * Json.t) list;  (* the driver's own keys *)
  gates : gate list;
}

let write path r =
  let doc =
    Json.Obj
      ((("schema", Json.String r.schema)
       :: ("host_domains", Json.Int (host_domains ()))
       :: r.fields)
      @ List.map (fun g -> (g.key, Json.Bool g.ok)) r.gates)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* Parse [args] against [specs] plus [--out], run [body], write its
   report and turn its gates into the exit code. A [Failure] from the
   workload exits 1 without a report. *)
let main ~cmd ~out ~specs args body =
  let out = ref out in
  let specs =
    Arg.align
      (specs
      @ [
          ( "--out",
            Arg.Set_string out,
            Printf.sprintf "FILE report path (default %s)" !out );
        ])
  in
  match
    Arg.parse_argv ~current:(ref 0)
      (Array.of_list (("bench " ^ cmd) :: args))
      specs
      (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument '%s'" a)))
      (Printf.sprintf "usage: bench -- %s [OPTION]..." cmd)
  with
  | exception (Arg.Bad msg | Arg.Help msg) ->
      prerr_string msg;
      2
  | () -> (
      match body () with
      | exception Failure msg ->
          Printf.eprintf "bench %s: %s\n" cmd msg;
          1
      | r ->
          write !out r;
          let failed = List.filter (fun g -> not g.ok) r.gates in
          List.iter
            (fun g -> Printf.eprintf "bench %s: FAIL — %s\n" cmd g.failure)
            failed;
          if failed = [] then 0 else 1)
