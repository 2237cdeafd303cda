(* Output checks of the benchmark.  Each check recomputes a property
   the hierarchical method must have from the run's outputs, with its
   own arithmetic: the table files are parsed here, dominance and the
   Wilson interval are recomputed here.  A check returns [Error msg]
   naming the first violation. *)

module Pll = Hieropt.Pll_problem

type outcome = (unit, string) result

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec all = function
  | [] -> Ok ()
  | (Ok () : outcome) :: rest -> all rest
  | (Error _ as e) :: _ -> e

(* ---- pareto.tbl ----------------------------------------------------- *)

(* One row of the flow's archive file: 7 sizing parameters, the five
   nominal performances, their five relative spreads, the sample count
   and (output column) the failure count. *)
type front_row = {
  params : float array;
  kvco : float;
  ivco : float;
  jvco : float;
  fmin : float;
  fmax : float;
  deltas : float array;  (** kvco ivco jvco fmin fmax *)
}

let parse_front text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           let cols =
             String.split_on_char ' ' line
             |> List.filter (fun s -> s <> "")
             |> List.map float_of_string |> Array.of_list
           in
           if Array.length cols <> 19 then
             failwith
               (Printf.sprintf "pareto.tbl: row with %d columns, expected 19"
                  (Array.length cols));
           Some
             {
               params = Array.sub cols 0 7;
               kvco = cols.(7);
               ivco = cols.(8);
               jvco = cols.(9);
               fmin = cols.(10);
               fmax = cols.(11);
               deltas = Array.sub cols 12 5;
             })
  |> Array.of_list

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_front dir = parse_front (read_file (Filename.concat dir "pareto.tbl"))

(* the circuit level's minimisation vector: jitter and current down,
   gain and top frequency up, bottom frequency down *)
let circuit_objectives r = [| r.jvco; r.ivco; -.r.kvco; r.fmin; -.r.fmax |]

let dominates a b =
  let le = ref true and lt = ref false in
  Array.iteri
    (fun i x ->
      if x > b.(i) then le := false else if x < b.(i) then lt := true)
    a;
  !le && !lt

let first_dominated objs =
  let n = Array.length objs in
  let found = ref None in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if !found = None && i <> j && dominates objs.(i) objs.(j) then
        found := Some (i, j)
    done
  done;
  !found

(* the archive prints 10 significant digits, so a design on a bound
   may read a hair outside it *)
let within (lo, hi) x =
  let slack = 1e-9 *. Float.max (Float.abs lo) (Float.abs hi) in
  x >= lo -. slack && x <= hi +. slack

let front ~bounds rows =
  let n = Array.length rows in
  if n < 2 then fail "front: %d design(s), need at least 2" n
  else
    let out_of_bounds =
      Array.to_list rows
      |> List.mapi (fun i r -> (i, r))
      |> List.find_map (fun (i, r) ->
             Array.to_list r.params
             |> List.mapi (fun k x -> (k, x))
             |> List.find_map (fun (k, x) ->
                    if within bounds.(k) x then None else Some (i, k, x)))
    in
    match out_of_bounds with
    | Some (i, k, x) ->
      let lo, hi = bounds.(k) in
      fail "front: design %d parameter %d = %g outside [%g, %g]" i k x lo hi
    | None -> (
      match first_dominated (Array.map circuit_objectives rows) with
      | Some (i, j) -> fail "front: design %d dominates design %d" i j
      | None -> Ok ())

(* ---- re-characterisation at a finer time step ------------------------ *)

let rel a b = Float.abs (a -. b) /. Float.max (Float.abs b) 1e-300

(* [refined] is the design measured at 1/8 of the flow's time step;
   frequencies and current must agree within 0.5%, jitter within 2% *)
let refined ~(nominal : Repro_spice.Vco_measure.performance)
    ~(refined : Repro_spice.Vco_measure.performance) =
  let module V = Repro_spice.Vco_measure in
  let tight = 0.005 and loose = 0.02 in
  let over name tol a b =
    if rel a b <= tol then Ok ()
    else fail "dt/8: %s %g vs %g differs by %.3f%% > %.1f%%" name a b
        (100. *. rel a b) (100. *. tol)
  in
  all
    [
      over "kvco" tight refined.V.kvco nominal.V.kvco;
      over "ivco" tight refined.V.ivco nominal.V.ivco;
      over "fmin" tight refined.V.fmin nominal.V.fmin;
      over "fmax" tight refined.V.fmax nominal.V.fmax;
      over "jvco" loose refined.V.jvco nominal.V.jvco;
    ]

(* ---- the table model reproduces its own Pareto points ---------------- *)

(* [query] is the model's answer at a front point's (kvco, ivco):
   (jvco, fmin, fmax, five spreads at the point's own nominals, and the
   recovered 7 sizing parameters) *)
type model_answer = {
  a_jvco : float;
  a_fmin : float;
  a_fmax : float;
  a_deltas : float array;
  a_params : float array;
}

(* each spread table maps a performance to its own spread *)
let abscissa r k = [| r.kvco; r.ivco; r.jvco; r.fmin; r.fmax |].(k)

(* a spread no one-dimensional table can reproduce: another point has
   the same abscissa but a different spread (fmin saturates at the
   measurement's floor on the low-gain end of some fronts) *)
let ambiguous rows i k =
  let r = rows.(i) in
  Array.exists
    (fun o ->
      o != r && abscissa o k = abscissa r k && o.deltas.(k) <> r.deltas.(k))
    rows

let ambiguous_spreads rows =
  let n = ref 0 in
  Array.iteri
    (fun i _ -> for k = 0 to 4 do if ambiguous rows i k then incr n done)
    rows;
  !n

let model_reproduces ~query rows =
  let tol = 1e-6 in
  let close what i a b =
    if Float.abs (a -. b) <= tol *. Float.max (Float.abs b) 1e-300 then Ok ()
    else fail "model: point %d %s reads %g, built from %g" i what a b
  in
  Array.to_list rows
  |> List.mapi (fun i r ->
         let a = query r in
         all
           ([
              close "jvco" i a.a_jvco r.jvco;
              close "fmin" i a.a_fmin r.fmin;
              close "fmax" i a.a_fmax r.fmax;
            ]
           @ List.init 5 (fun k ->
                 if ambiguous rows i k then Ok ()
                 else
                   close (Printf.sprintf "spread %d" k) i a.a_deltas.(k)
                     r.deltas.(k))
           @ List.init 7 (fun k ->
                 close (Printf.sprintf "p%d" (k + 1)) i a.a_params.(k)
                   r.params.(k))))
  |> all

(* ---- yield --------------------------------------------------------- *)

let wilson ~pass ~total =
  let z = 1.96 and n = float_of_int total in
  let p = float_of_int pass /. n in
  let centre = (p +. (z *. z /. (2. *. n))) /. (1. +. (z *. z /. n)) in
  let half =
    z /. (1. +. (z *. z /. n))
    *. sqrt ((p *. (1. -. p) /. n) +. (z *. z /. (4. *. n *. n)))
  in
  (Float.max 0. (centre -. half), Float.min 1. (centre +. half))

let yield_estimate ~samples (y : Repro_util.Stats.yield_estimate) =
  let module S = Repro_util.Stats in
  let lo, hi = wilson ~pass:y.S.pass ~total:y.S.total in
  let fraction = float_of_int y.S.pass /. float_of_int y.S.total in
  if y.S.total <> samples then
    fail "yield: %d samples reported, %d requested" y.S.total samples
  else if y.S.pass < 0 || y.S.pass > y.S.total then
    fail "yield: %d passes out of %d" y.S.pass y.S.total
  else if Float.abs (y.S.fraction -. fraction) > 1e-12 then
    fail "yield: fraction %g is not %d/%d" y.S.fraction y.S.pass y.S.total
  else if
    Float.abs (y.S.ci_low -. lo) > 1e-9 || Float.abs (y.S.ci_high -. hi) > 1e-9
  then
    fail "yield: interval [%g, %g], Wilson gives [%g, %g]" y.S.ci_low
      y.S.ci_high lo hi
  else Ok ()

(* ---- Table 2 ------------------------------------------------------- *)

let row_objectives (r : Pll.table2_row) =
  [| r.Pll.lock; r.Pll.jit; r.Pll.curr |]

(* Lock time, jitter and current brackets span the three PLL variants.
   The VCO gain and VCO current brackets come from the interpolated
   spreads; a negative interpolated spread inverts them, which
   [inverted_brackets] counts rather than fails: it shows on some seeds
   only. *)
let rows (rs : Pll.table2_row array) =
  let bracket i what v lo hi =
    if lo <= v && v <= hi then Ok ()
    else fail "table 2: row %d %s %g outside its own [%g, %g]" i what v lo hi
  in
  let brackets =
    Array.to_list rs
    |> List.mapi (fun i (r : Pll.table2_row) ->
           all
             [
               bracket i "lock" r.Pll.lock r.Pll.lock_min r.Pll.lock_max;
               bracket i "jitter" r.Pll.jit r.Pll.jit_min r.Pll.jit_max;
               bracket i "current" r.Pll.curr r.Pll.curr_min r.Pll.curr_max;
             ])
  in
  all
    (brackets
    @ [
        (match first_dominated (Array.map row_objectives rs) with
        | Some (i, j) -> fail "table 2: row %d dominates row %d" i j
        | None -> Ok ());
      ])

let inverted_brackets (rs : Pll.table2_row array) =
  Array.fold_left
    (fun n (r : Pll.table2_row) ->
      n
      + (if r.Pll.kv_min > r.Pll.kv_max then 1 else 0)
      + if r.Pll.iv_min > r.Pll.iv_max then 1 else 0)
    0 rs

(* the selected row must meet the worst-case limits; no selection is
   right only when no row meets them *)
let selection ~(spec : Hieropt.Spec.t) (rs : Pll.table2_row array)
    (selected : Pll.table2_row option) =
  let meets (r : Pll.table2_row) =
    r.Pll.lock_max <= spec.Hieropt.Spec.lock_time_max
    && r.Pll.curr_max <= spec.Hieropt.Spec.current_max
  in
  match selected with
  | Some r when not (meets r) ->
    fail "selection: worst case lock %g s / current %g A exceeds %g s / %g A"
      r.Pll.lock_max r.Pll.curr_max spec.Hieropt.Spec.lock_time_max
      spec.Hieropt.Spec.current_max
  | Some r when not (Array.exists (fun x -> x = r) rs) ->
    fail "selection: the selected row is not a Table 2 row"
  | Some _ -> Ok ()
  | None ->
    if Array.exists meets rs then
      fail "selection: a row meets the spec but none was selected"
    else Ok ()

(* ---- artefact identity --------------------------------------------- *)

let tbl_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tbl")
  |> List.sort compare

let identical_tables ~reference dir =
  let a = tbl_files reference and b = tbl_files dir in
  if a <> b then
    fail "artefacts: file sets differ (%s vs %s)" (String.concat "," a)
      (String.concat "," b)
  else if a = [] then fail "artefacts: no .tbl files"
  else
    match
      List.find_opt
        (fun f ->
          read_file (Filename.concat reference f)
          <> read_file (Filename.concat dir f))
        a
    with
    | Some f -> fail "artefacts: %s differs from the serial flow's" f
    | None -> Ok ()
