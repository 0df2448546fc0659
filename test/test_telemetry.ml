(* Telemetry: histogram percentile math, counter monotonicity, span
   nesting, and the JSON dump's round-trip shape. *)

open Lemur_telemetry

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float what expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" what expected got)
    true (feq expected got)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles                                                *)

(* Hand-computed nearest-rank percentiles over exact bucket bounds.
   Bounds [1;2;4;8]: a sample equal to a bound lands in that bound's
   bucket, and the reported percentile is the bucket bound clamped to
   the observed max. *)
let test_percentile_exact () =
  let h = Histogram.make ~bounds:[| 1.0; 2.0; 4.0; 8.0 |] "t" in
  (* 10 samples: 4 in bucket <=1, 3 in <=2, 2 in <=4, 1 in <=8 *)
  List.iter (Histogram.record h)
    [ 0.5; 0.6; 0.9; 1.0; 1.5; 1.5; 2.0; 3.0; 4.0; 7.0 ];
  Alcotest.(check int) "count" 10 (Histogram.count h);
  (* nearest rank: rank = ceil(p/100 * 10) *)
  check_float "p10 (rank 1, bucket <=1)" 1.0 (Histogram.percentile h 10.0);
  check_float "p40 (rank 4, bucket <=1)" 1.0 (Histogram.percentile h 40.0);
  check_float "p50 (rank 5, bucket <=2)" 2.0 (Histogram.percentile h 50.0);
  check_float "p70 (rank 7, bucket <=2)" 2.0 (Histogram.percentile h 70.0);
  check_float "p80 (rank 8, bucket <=4)" 4.0 (Histogram.percentile h 80.0);
  (* rank 10 falls in bucket <=8, clamped to the observed max 7.0 *)
  check_float "p99 (rank 10, clamped to max)" 7.0 (Histogram.percentile h 99.0);
  check_float "p100" 7.0 (Histogram.percentile h 100.0);
  check_float "sum" 22.0 (Histogram.sum h);
  check_float "mean" 2.2 (Histogram.mean h);
  check_float "min" 0.5 (Histogram.min_value h);
  check_float "max" 7.0 (Histogram.max_value h)

let test_percentile_overflow () =
  let h = Histogram.make ~bounds:[| 1.0; 2.0 |] "t" in
  (* samples beyond the last bound land in the overflow bucket, whose
     percentile degrades to the exact observed maximum *)
  List.iter (Histogram.record h) [ 0.5; 5.0; 9.0 ];
  check_float "p99 = overflow max" 9.0 (Histogram.percentile h 99.0);
  check_float "p33 (rank 1)" 1.0 (Histogram.percentile h 33.0);
  match Histogram.bucket_counts h with
  | [ (b1, 1); (binf, 2) ] ->
      check_float "first bound" 1.0 b1;
      Alcotest.(check bool) "overflow bound" true (binf = infinity)
  | other ->
      Alcotest.failf "unexpected buckets (%d entries)" (List.length other)

let test_percentile_empty () =
  let h = Histogram.make "empty" in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  check_float "p50 of empty" 0.0 (Histogram.percentile h 50.0);
  check_float "p99 of empty" 0.0 (Histogram.percentile h 99.0);
  check_float "mean of empty" 0.0 (Histogram.mean h)

let test_percentile_single () =
  let h = Histogram.make "single" in
  Histogram.record h 1234.5;
  (* one sample: every percentile is that exact sample, not a bucket
     bound *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%g" p) 1234.5 (Histogram.percentile h p))
    [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

let test_histogram_validation () =
  Alcotest.check_raises "empty bounds" (Invalid_argument "Histogram.make: empty bounds")
    (fun () -> ignore (Histogram.make ~bounds:[||] "bad"));
  match Histogram.make ~bounds:[| 2.0; 1.0 |] "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing bounds accepted"

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

let test_counter_monotone () =
  let c = Counter.make "c" in
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c ~by:41;
  Alcotest.(check int) "accumulates" 42 (Counter.value c);
  Counter.incr c ~by:0;
  Alcotest.(check int) "zero increment ok" 42 (Counter.value c);
  (match Counter.incr c ~by:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  Alcotest.(check int) "unchanged after rejected incr" 42 (Counter.value c)

let test_counter_interning () =
  let t = Telemetry.create () in
  let a = Telemetry.counter t "x" in
  let b = Telemetry.counter t "x" in
  Counter.incr a;
  Counter.incr b;
  Alcotest.(check int) "same name, same counter" 2 (Counter.value a);
  Alcotest.(check int) "one registered" 1 (List.length (Telemetry.counters t))

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

(* A deterministic clock: each read advances by 1 second. *)
let ticking () =
  let now = ref 0.0 in
  fun () ->
    let t = !now in
    now := t +. 1.0;
    t

let test_span_nesting () =
  let t = Telemetry.create ~clock:(ticking ()) () in
  Telemetry.with_span t "outer" (fun () ->
      Telemetry.with_span t "inner1" (fun () -> ());
      Telemetry.with_span t "inner2" (fun () -> ()));
  Telemetry.with_span t "second" (fun () -> ());
  match Telemetry.spans t with
  | [ outer; second ] ->
      Alcotest.(check string) "outer name" "outer" outer.Telemetry.span_name;
      Alcotest.(check string) "second root" "second" second.Telemetry.span_name;
      Alcotest.(check (list string))
        "children in order" [ "inner1"; "inner2" ]
        (List.map (fun s -> s.Telemetry.span_name) outer.Telemetry.span_children);
      (* clock reads: epoch(0) outer-open(1) inner1-open(2)
         inner1-close(3) inner2-open(4) inner2-close(5) outer-close(6);
         span starts are relative to the epoch *)
      check_float "outer duration" 5.0 outer.Telemetry.span_duration;
      (match outer.Telemetry.span_children with
      | [ i1; i2 ] ->
          check_float "inner1 start" 2.0 i1.Telemetry.span_start;
          check_float "inner1 duration" 1.0 i1.Telemetry.span_duration;
          check_float "inner2 start" 4.0 i2.Telemetry.span_start
      | _ -> Alcotest.fail "expected two children")
  | other -> Alcotest.failf "expected 2 root spans, got %d" (List.length other)

let test_span_exception () =
  let t = Telemetry.create ~clock:(ticking ()) () in
  (try
     Telemetry.with_span t "outer" (fun () ->
         Telemetry.with_span t "failing" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Telemetry.spans t with
  | [ outer ] ->
      Alcotest.(check string) "root survives" "outer" outer.Telemetry.span_name;
      Alcotest.(check (list string))
        "raising child recorded" [ "failing" ]
        (List.map (fun s -> s.Telemetry.span_name) outer.Telemetry.span_children)
  | other -> Alcotest.failf "expected 1 root span, got %d" (List.length other)

let test_disabled_sink () =
  let t = Telemetry.disabled in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  let c = Telemetry.counter t "c" in
  Counter.incr c;
  Alcotest.(check int) "counter still works" 1 (Counter.value c);
  let c' = Telemetry.counter t "c" in
  Alcotest.(check int) "but is not interned" 0 (Counter.value c');
  Alcotest.(check int) "nothing registered" 0 (List.length (Telemetry.counters t));
  let r = Telemetry.with_span t "s" (fun () -> 42) in
  Alcotest.(check int) "span passes value through" 42 r;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Telemetry.spans t))

(* [scoped] makes a fresh registry current for the thunk only, and the
   [finally] hook sees what was recorded even when the thunk raises. *)
let test_scoped () =
  let dumped = ref [] in
  let finally t =
    Alcotest.(check bool) "restored before finally" false
      (Telemetry.enabled (Telemetry.current ()));
    dumped := List.map Counter.value (Telemetry.counters t) :: !dumped
  in
  let r =
    Telemetry.scoped ~finally (fun t ->
        Alcotest.(check bool) "fresh registry is current" true
          (Telemetry.current () == t && Telemetry.enabled t);
        Counter.incr (Telemetry.counter (Telemetry.current ()) "ok");
        7)
  in
  Alcotest.(check int) "value passed through" 7 r;
  (match
     Telemetry.scoped ~finally (fun t ->
         Counter.incr ~by:3 (Telemetry.counter t "failing");
         failwith "boom")
   with
  | () -> Alcotest.fail "the exception was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check (list (list int)))
    "both registries dumped" [ [ 3 ]; [ 1 ] ] !dumped;
  Alcotest.(check bool) "disabled afterwards" false
    (Telemetry.enabled (Telemetry.current ()))

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                      *)

let get what = function Some v -> v | None -> Alcotest.failf "missing %s" what

let test_json_roundtrip () =
  let t = Telemetry.create ~clock:(ticking ()) () in
  Telemetry.with_span t "root" (fun () ->
      Counter.incr ~by:7 (Telemetry.counter t "events");
      let h = Telemetry.histogram t ~bounds:[| 1.0; 10.0; 100.0 |] "lat" in
      List.iter (Histogram.record h) [ 0.5; 5.0; 50.0; 500.0 ]);
  let text = Json.to_string (Telemetry.to_json t) in
  let doc =
    match Json.of_string text with
    | Ok d -> d
    | Error e -> Alcotest.failf "reparse failed: %s" e
  in
  (match Json.member "schema" doc with
  | Some (Json.String s) -> Alcotest.(check string) "schema" "lemur.telemetry/1" s
  | _ -> Alcotest.fail "schema missing");
  (match get "spans" (Json.member "spans" doc) with
  | Json.List [ span ] -> (
      match Json.member "name" span with
      | Some (Json.String n) -> Alcotest.(check string) "span name" "root" n
      | _ -> Alcotest.fail "span name missing")
  | _ -> Alcotest.fail "expected one span");
  (match get "counters" (Json.member "counters" doc) with
  | Json.List [ c ] ->
      Alcotest.(check (option string))
        "counter name" (Some "events")
        (match Json.member "name" c with Some (Json.String s) -> Some s | _ -> None);
      check_float "counter value" 7.0
        (get "value" (Option.bind (Json.member "value" c) Json.to_float))
  | _ -> Alcotest.fail "expected one counter");
  match get "histograms" (Json.member "histograms" doc) with
  | Json.List [ h ] ->
      let num k = get k (Option.bind (Json.member k h) Json.to_float) in
      check_float "count" 4.0 (num "count");
      (* rank ceil(0.5*4)=2 -> bucket <=10; rank ceil(.99*4)=4 ->
         overflow, clamped to max 500 *)
      check_float "p50" 10.0 (num "p50");
      check_float "p99" 500.0 (num "p99");
      check_float "max" 500.0 (num "max")
  | _ -> Alcotest.fail "expected one histogram"

let test_json_parser () =
  (match Json.of_string "{\"a\": [1, 2.5, null, true, \"x\\n\"]}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float f; Json.Null; Json.Bool true; Json.String "x\n" ]) ])
    when feq f 2.5 ->
      ()
  | Ok other -> Alcotest.failf "misparsed: %s" (Json.to_string ~pretty:false other)
  | Error e -> Alcotest.failf "parse error: %s" e);
  match Json.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed document"

let test_json_unicode_escapes () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* the happy path: exactly four hex digits *)
  (match Json.of_string "\"\\u0041\"" with
  | Ok (Json.String "A") -> ()
  | Ok other -> Alcotest.failf "misparsed: %s" (Json.to_string ~pretty:false other)
  | Error e -> Alcotest.failf "rejected valid escape: %s" e);
  (* a valid surrogate pair parses (rendered as '?', outside ASCII) *)
  (match Json.of_string "\"\\uD83D\\uDE00\"" with
  | Ok (Json.String "?") -> ()
  | Ok other -> Alcotest.failf "misparsed pair: %s" (Json.to_string ~pretty:false other)
  | Error e -> Alcotest.failf "rejected valid pair: %s" e);
  let must_reject ~why ~needle doc =
    match Json.of_string doc with
    | Ok _ -> Alcotest.failf "accepted %s" why
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the problem (%s)" why e)
          true (contains ~needle e)
  in
  (* too few digits: the terminating quote is not hex *)
  must_reject ~why:"a 3-digit escape" ~needle:"non-hex" "\"\\u012\"";
  must_reject ~why:"a non-hex digit" ~needle:"non-hex" "\"\\u01g2\"";
  must_reject ~why:"a truncated escape" ~needle:"truncated" "\"\\u01";
  (* surrogate halves are only valid as a high+low pair *)
  must_reject ~why:"an unpaired high surrogate" ~needle:"unpaired high"
    "\"\\uD800x\"";
  must_reject ~why:"a lone low surrogate" ~needle:"unpaired low"
    "\"\\uDC00\"";
  must_reject ~why:"a high surrogate followed by a non-surrogate"
    ~needle:"expected low surrogate" "\"\\uD800\\u0041\""

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "percentiles: exact buckets" `Quick test_percentile_exact;
    Alcotest.test_case "percentiles: overflow bucket" `Quick test_percentile_overflow;
    Alcotest.test_case "percentiles: empty histogram" `Quick test_percentile_empty;
    Alcotest.test_case "percentiles: single sample" `Quick test_percentile_single;
    Alcotest.test_case "histogram bound validation" `Quick test_histogram_validation;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotone;
    Alcotest.test_case "counter interning" `Quick test_counter_interning;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
    Alcotest.test_case "disabled sink is inert" `Quick test_disabled_sink;
    Alcotest.test_case "scoped registry restores the disabled sink" `Quick
      test_scoped;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
  ]
