(* Each output check of the benchmark accepts a sound output and rejects
   a corrupted copy of it. *)

module Pll = Hieropt.Pll_problem
module V = Repro_spice.Vco_measure

let accepts name = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: rejected a sound output: %s" name m

let rejects name = function
  | Ok () -> Alcotest.failf "%s: accepted a corrupted output" name
  | Error _ -> ()

let bounds = Repro_circuit.Topologies.vco_bounds
let mid = Array.map (fun (lo, hi) -> (lo +. hi) /. 2.) bounds

let row ~kvco ~ivco ~jvco =
  {
    Checks.params = mid;
    kvco;
    ivco;
    jvco;
    fmin = 120e6;
    fmax = 400e6;
    deltas = [| 0.01; 0.02; 0.1; 0.; 0.01 |];
  }

(* more gain costs more current and jitter: neither design dominates *)
let good_front =
  [|
    row ~kvco:1e8 ~ivco:4e-3 ~jvco:3e-13;
    row ~kvco:3e8 ~ivco:8e-3 ~jvco:6e-13;
  |]

let with_second f = [| good_front.(0); f good_front.(1) |]

let front () =
  accepts "front" (Checks.front ~bounds good_front);
  rejects "one design" (Checks.front ~bounds [| good_front.(0) |]);
  let outside = Array.copy mid in
  outside.(2) <- snd bounds.(2) *. 1.01;
  rejects "out of bounds"
    (Checks.front ~bounds
       (with_second (fun r -> { r with Checks.params = outside })));
  rejects "dominated"
    (Checks.front ~bounds (with_second (fun r -> { r with Checks.kvco = 9e7 })))

let parse () =
  let line r =
    Array.concat
      [
        r.Checks.params;
        [| r.Checks.kvco; r.Checks.ivco; r.Checks.jvco; r.Checks.fmin |];
        [| r.Checks.fmax |];
        r.Checks.deltas;
        [| 4.; 0. |];
      ]
    |> Array.to_list
    |> List.map (Printf.sprintf "%.9e")
    |> String.concat " "
  in
  let text =
    String.concat "\n" [ "# header"; line good_front.(0); line good_front.(1) ]
  in
  let rows = Checks.parse_front text in
  Alcotest.(check int) "rows" 2 (Array.length rows);
  Alcotest.(check (float 1e-3)) "kvco" 3e8 rows.(1).Checks.kvco;
  Alcotest.check_raises "short row"
    (Failure "pareto.tbl: row with 2 columns, expected 19") (fun () ->
      ignore (Checks.parse_front "1 2\n"))

let perf = { V.kvco = 2e8; ivco = 5e-3; jvco = 5e-13; fmin = 1.2e8; fmax = 5e8 }
let refine r = Checks.refined ~nominal:perf ~refined:r

let refined () =
  accepts "same" (refine perf);
  accepts "jitter within 2%" (refine { perf with V.jvco = 5.075e-13 });
  rejects "gain off 1%" (refine { perf with V.kvco = 2.02e8 });
  rejects "current off 1%" (refine { perf with V.ivco = 4.95e-3 });
  rejects "fmax off 1%" (refine { perf with V.fmax = 5.05e8 });
  rejects "jitter off 3%" (refine { perf with V.jvco = 5.15e-13 })

let exact (r : Checks.front_row) =
  {
    Checks.a_jvco = r.Checks.jvco;
    a_fmin = r.Checks.fmin;
    a_fmax = r.Checks.fmax;
    a_deltas = Array.copy r.Checks.deltas;
    a_params = Array.copy r.Checks.params;
  }

(* the model's answers, changed in place by [change] *)
let reproduces ?(rows = good_front) change =
  Checks.model_reproduces rows ~query:(fun r ->
      let a = exact r in
      change a;
      a)

let model () =
  accepts "model" (reproduces ignore);
  rejects "jitter"
    (Checks.model_reproduces good_front ~query:(fun r ->
         { (exact r) with Checks.a_jvco = r.Checks.jvco *. 1.001 }));
  rejects "spread" (reproduces (fun a -> a.Checks.a_deltas.(2) <- 0.11));
  rejects "recovered sizing"
    (reproduces (fun a -> a.Checks.a_params.(6) <- 1.01 *. mid.(6)));
  (* two points on one fmin with different spreads: no table can
     reproduce both, so that spread is counted, not checked *)
  let clamped =
    with_second (fun r ->
        { r with Checks.deltas = [| 0.01; 0.02; 0.1; 0.15; 0.01 |] })
  in
  Alcotest.(check int) "ambiguous" 2 (Checks.ambiguous_spreads clamped);
  Alcotest.(check int) "unambiguous" 0 (Checks.ambiguous_spreads good_front);
  accepts "ambiguous spread skipped"
    (reproduces ~rows:clamped (fun a -> a.Checks.a_deltas.(3) <- 0.07))

let yield () =
  let module S = Repro_util.Stats in
  let y = S.yield ~pass:431 ~total:500 in
  let check = Checks.yield_estimate ~samples:500 in
  accepts "yield" (check y);
  rejects "sample total" (Checks.yield_estimate ~samples:400 y);
  rejects "fraction" (check { y with S.fraction = 0.9 });
  rejects "interval" (check { y with S.ci_low = y.S.ci_low -. 0.01 });
  rejects "passes" (check { y with S.pass = 501 })

let pll_row ~lock ~jit =
  let curr = 1e-2 in
  {
    Pll.kv = 2e8; kv_min = 1.9e8; kv_max = 2.1e8;
    iv = 5e-3; iv_min = 4.8e-3; iv_max = 5.2e-3;
    c1 = 5e-12; c2 = 5e-13; r1 = 5e3;
    lock; lock_min = lock *. 0.9; lock_max = lock *. 1.2;
    jit; jit_min = jit *. 0.9; jit_max = jit *. 1.1;
    curr; curr_min = curr *. 0.98; curr_max = curr *. 1.02;
  }

(* faster lock costs jitter: a two-row front *)
let table2 = [| pll_row ~lock:2e-7 ~jit:4e-12; pll_row ~lock:4e-7 ~jit:2e-12 |]
let second f = [| table2.(0); f table2.(1) |]

let rows () =
  accepts "rows" (Checks.rows table2);
  rejects "dominated"
    (Checks.rows
       (second (fun r -> { r with Pll.lock = 1.9e-7; lock_min = 1e-7 })));
  rejects "nominal above max"
    (Checks.rows (second (fun r -> { r with Pll.jit_max = 1.9e-12 })));
  rejects "nominal below min"
    (Checks.rows (second (fun r -> { r with Pll.lock_min = 4.1e-7 })));
  Alcotest.(check int) "sound brackets" 0 (Checks.inverted_brackets table2);
  Alcotest.(check int) "inverted current bracket" 1
    (Checks.inverted_brackets
       (second (fun r -> { r with Pll.iv_min = 5.3e-3; iv_max = 4.7e-3 })))

let selection () =
  let spec = Hieropt.Spec.default in
  let limit = spec.Hieropt.Spec.lock_time_max in
  let meets = { (table2.(1)) with Pll.lock_max = limit *. 0.5 } in
  let misses = { (table2.(0)) with Pll.lock_max = limit *. 1.5 } in
  let rs = [| misses; meets |] in
  let hot =
    { meets with Pll.curr_max = spec.Hieropt.Spec.current_max *. 1.1 }
  in
  accepts "selected" (Checks.selection ~spec rs (Some meets));
  rejects "over the lock limit" (Checks.selection ~spec rs (Some misses));
  rejects "over the current limit"
    (Checks.selection ~spec [| hot |] (Some hot));
  rejects "nothing selected" (Checks.selection ~spec rs None);
  accepts "nothing to select" (Checks.selection ~spec [| misses |] None);
  rejects "not a row" (Checks.selection ~spec [| misses |] (Some meets))

let identical () =
  let pid = string_of_int (Unix.getpid ()) in
  let dir name files =
    let d = Filename.concat Filename.current_dir_name (name ^ "-" ^ pid) in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    List.iter
      (fun (f, text) ->
        Out_channel.with_open_bin (Filename.concat d f) (fun oc ->
            output_string oc text))
      files;
    d
  in
  let tables = [ ("a.tbl", "1 2\n"); ("pareto.tbl", "3 4\n") ] in
  let reference = dir "ref" (("eval.cache", "x") :: tables) in
  (* only the .tbl artefacts are compared *)
  let same = dir "same" (("eval.cache", "y") :: tables) in
  let byte = dir "byte" [ ("a.tbl", "1 2\n"); ("pareto.tbl", "3 5\n") ] in
  let missing = dir "missing" [ ("pareto.tbl", "3 4\n") ] in
  accepts "identical" (Checks.identical_tables ~reference same);
  rejects "one byte" (Checks.identical_tables ~reference byte);
  rejects "missing file" (Checks.identical_tables ~reference missing);
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ reference; same; byte; missing ]

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "front" `Quick front;
          Alcotest.test_case "pareto.tbl parse" `Quick parse;
          Alcotest.test_case "dt/8 re-characterisation" `Quick refined;
          Alcotest.test_case "model reproduces its points" `Quick model;
          Alcotest.test_case "yield and Wilson interval" `Quick yield;
          Alcotest.test_case "table 2 rows" `Quick rows;
          Alcotest.test_case "selection meets the spec" `Quick selection;
          Alcotest.test_case "artefacts identical" `Quick identical;
        ] );
    ]
