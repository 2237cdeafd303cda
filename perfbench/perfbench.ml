(* One round of a benchmark workload, in a fresh process.

     perfbench.exe round --workload W --seed N --trace 0|1 --workdir DIR
     perfbench.exe setup --workload W --workdir DIR
     perfbench.exe worker
     perfbench.exe fixture [--write]

   [round] sets the workload up with configuration seed N (run.py
   derives it from the benchmark seed), prints "ready" when the timed
   work starts, runs it, checks its outputs and prints one JSON object
   as its last line.  [setup] does the set-up alone and exits.
   [worker] is an eval-worker of the dist-flow farm (one domain, one
   reactor).  [fixture] regenerates the system-paper table model from a
   seed-2009 tiny flow and says whether the committed copy still
   matches.

   The benchmark reaches the program only through public functions of
   its libraries and adds its own timers around the calls it makes. *)

module H = Hieropt.Hierarchy
module PT = Hieropt.Perf_table
module E = Repro_engine
module Hist = Repro_obs.Histogram
module Json = Repro_serve.Json
module V = Repro_spice.Vco_measure
module T = Repro_circuit.Topologies

let now = Unix.gettimeofday
let fixture_dir = Filename.concat "perfbench" "fixture"
let read_file = Checks.read_file

(* ---- process figures ------------------------------------------------ *)

(* peak resident set of a live process ("self" or a pid), MB *)
let peak_rss_mb pid =
  String.split_on_char '\n' (read_file ("/proc/" ^ pid ^ "/status"))
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
               Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.

(* user + system CPU of another process: /proc/PID/stat fields 14 and
   15, in USER_HZ (100) ticks, counted after the parenthesised name *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s after (String.length s - after)))
  in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

(* ---- telemetry and progress stamps --------------------------------- *)

type snapshot = (string * [ `Counter of int | `Timer of float ]) list

let counter_in (snap : snapshot) name =
  match List.assoc_opt name snap with Some (`Counter v) -> v | _ -> 0

let timer_in (snap : snapshot) name =
  match List.assoc_opt name snap with Some (`Timer v) -> v | _ -> 0.

type hstat = { h_count : int; h_sum : float; h_p50 : float }

let hstat name =
  let s = Hist.stats (Hist.get name) in
  { h_count = s.Hist.count; h_sum = s.Hist.sum; h_p50 = s.Hist.p50 }

(* one stamp per progress line of the flow, with the counters at that
   moment: the phase gaps and per-level splits the program's own timers
   do not give *)
type stamp = { at : float; msg : string; counters : snapshot; eval : hstat }

let stamps = ref []

let progress msg =
  let s =
    { at = now (); msg; counters = E.Telemetry.snapshot ();
      eval = hstat "eval.duration" }
  in
  stamps := s :: !stamps

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let find_stamp pred = List.find_opt (fun s -> pred s.msg) (List.rev !stamps)
let stamp_at pred = Option.map (fun s -> s.at) (find_stamp pred)

let circuit_end m =
  String.starts_with ~prefix:"circuit level:" m && contains "Pareto designs" m

let system_start m =
  String.starts_with ~prefix:"system level:" m && not (contains "Pareto" m)

let system_end m =
  String.starts_with ~prefix:"system level:" m
  && contains "Pareto solutions" m

(* ---- eval-worker farm ----------------------------------------------- *)

type worker = { pid : int; port : int; client : Repro_serve.Client.t }

let live_workers : worker list ref = ref []

let stop_workers () =
  List.iter
    (fun w ->
      Repro_serve.Client.shutdown w.client;
      (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] w.pid))
    !live_workers;
  live_workers := []

let () = at_exit stop_workers

(* the worker prints its ephemeral port as its first line *)
let spawn_worker () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "worker" |] Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match Scanf.sscanf_opt line "port %d" Fun.id with
  | Some port ->
    let client = Repro_serve.Client.create ~port ~timeout:60. () in
    let w = { pid; port; client } in
    live_workers := w :: !live_workers;
    w
  | None ->
    ignore (Unix.waitpid [] pid);
    failwith "eval-worker did not start"

let worker_metrics w =
  match Repro_serve.Client.get_json w.client "/v1/metrics" with
  | Ok j -> j
  | Error e ->
    failwith ("worker metrics: " ^ Repro_serve.Client.error_to_string e)

let jnum path j =
  let rec go j = function
    | [] -> ( match j with Json.Num x -> x | _ -> 0.)
    | k :: rest -> (
      match Json.member k j with Some v -> go v rest | None -> 0.)
  in
  go j path

(* ---- workloads ------------------------------------------------------ *)

type workload = Flow_tiny | System_paper | Dist_flow

let workload_of_string = function
  | "flow-tiny" -> Flow_tiny
  | "system-paper" -> System_paper
  | "dist-flow" -> Dist_flow
  | w -> failwith ("unknown workload " ^ w)

let flow_config ?model_dir seed =
  H.make_config ~seed ~scale:H.tiny_scale ~spec:H.tiny_spec ?model_dir ()

let system_config seed =
  H.make_config ~seed ~scale:H.paper_scale ~spec:H.tiny_spec ()

let fresh_dir parent name =
  let dir = Filename.concat parent name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* what a workload holds once set up *)
type prepared = {
  cfg : H.config;
  model_dir : string option;
  model : PT.t option;  (** the system-paper fixture *)
  farm : (Repro_dist.Coordinator.t * worker list) option;
}

let start_farm cfg =
  let ws = [ spawn_worker (); spawn_worker () ] in
  List.iter
    (fun w ->
      if not (Repro_serve.Client.wait_ready ~deadline:30. w.client) then
        failwith "eval-worker not healthy")
    ws;
  let endpoints =
    List.map (fun w -> Printf.sprintf "127.0.0.1:%d" w.port) ws
  in
  match
    Repro_dist.Coordinator.create ~salt:(H.config_salt cfg) ~endpoints ()
  with
  | Ok c when Repro_dist.Coordinator.live_workers c = List.length ws -> (c, ws)
  | Ok _ -> failwith "coordinator: not every eval-worker is live"
  | Error m -> failwith ("coordinator: " ^ m)

let prepare ~workdir ~seed = function
  | System_paper ->
    { cfg = system_config seed; model_dir = None;
      model = Some (PT.load ~dir:fixture_dir); farm = None }
  | (Flow_tiny | Dist_flow) as w ->
    let dir = fresh_dir workdir "model" in
    let cfg = flow_config ~model_dir:dir seed in
    let farm = if w = Dist_flow then Some (start_farm cfg) else None in
    { cfg; model_dir = Some dir; model = None; farm }

(* ---- the traced probe ------------------------------------------------ *)

(* Per-Newton figures come from a probe over a sample of the run's own
   designs: tracing a whole flow records over a million mna.newton
   spans.  The designs are characterised untraced, then traced; the
   linear-solver unit cost is timed on the same circuit's matrix. *)
type probe = {
  chars : int;
  newton_solves : int;
  newton_s : float;
  iterations : int;
  linalg_us : float;
  overhead : float;  (** traced over untraced wall *)
}

let newton_spans events =
  let stacks = Hashtbl.create 4 in
  let solves = ref 0 and total = ref 0. in
  List.iter
    (fun (e : Repro_obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match (e.ph, stack) with
      | 'B', _ -> Hashtbl.replace stacks e.tid ((e.name, e.ts) :: stack)
      | 'E', (name, ts) :: rest ->
        Hashtbl.replace stacks e.tid rest;
        if name = "mna.newton" then begin
          incr solves;
          total := !total +. ((e.ts -. ts) /. 1e6)
        end
      | _ -> ())
    events;
  (!solves, !total)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* refactorise + solve on the VCO's transient Jacobian (trapezoidal
   companion at the nominal step), at its DC operating point *)
let linalg_unit_us (cfg : H.config) params =
  let module Mna = Repro_spice.Mna in
  let module Lu = Repro_linalg.Sparse_lu in
  let c = Mna.compile (H.circuit_netlist cfg params) in
  let n = Mna.size c in
  let x = (Repro_spice.Dcop.solve c).Repro_spice.Dcop.solution in
  let ncaps = Mna.cap_count c in
  let geq =
    Array.init ncaps (fun i ->
        2. *. Mna.cap_value c i /. cfg.H.measure.V.dt)
  in
  let jacobian = Repro_linalg.Matrix.create n n in
  let residual = Repro_linalg.Vec.create n in
  Mna.assemble c ~x ~time:0. ~gmin:1e-12 ~source_scale:1.
    ~cap_mode:(Mna.Companion { geq; ieq = Array.make ncaps 0. })
    ~jacobian ~residual;
  let a = Repro_linalg.Sparse.of_matrix jacobian in
  let _, nm = Lu.factorise a in
  let b = Array.map (fun r -> -.r) residual and dx = Array.make n 0. in
  let reps = 2000 in
  let batch () =
    let t0 = now () in
    for _ = 1 to reps do
      Lu.refactorise nm a;
      Lu.solve_into nm ~b ~x:dx
    done;
    (now () -. t0) /. float_of_int reps *. 1e6
  in
  median (List.init 7 (fun _ -> batch ()))

let probe (cfg : H.config) designs =
  let characterise p = ignore (V.characterise ~options:cfg.H.measure p) in
  let run () =
    let t0 = now () in
    List.iter characterise designs;
    now () -. t0
  in
  (* the first characterisation in a process pays the symbolic
     factorisation; warm up so every timed pass sees the same state *)
  characterise (List.hd designs);
  (* untraced and traced passes alternate, so a change in the host's
     speed during the probe falls on both *)
  let passes =
    List.init 3 (fun _ ->
        let untraced = run () in
        let it0 = E.Telemetry.counter "solver.refactorise" in
        Repro_obs.Trace.start ();
        let traced = run () in
        Repro_obs.Trace.stop ();
        let iterations = E.Telemetry.counter "solver.refactorise" - it0 in
        let solves, newton_s = newton_spans (Repro_obs.Trace.events ()) in
        (untraced, traced, iterations, solves, newton_s))
  in
  (* drop the buffered events *)
  Repro_obs.Trace.start ();
  Repro_obs.Trace.stop ();
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let fsum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  {
    chars = List.length designs * List.length passes;
    newton_solves = sum (fun (_, _, _, n, _) -> n);
    newton_s = fsum (fun (_, _, _, _, s) -> s);
    iterations = sum (fun (_, _, i, _, _) -> i);
    linalg_us = linalg_unit_us cfg (List.hd designs);
    overhead =
      median (List.map (fun (_, t, _, _, _) -> t) passes)
      /. median (List.map (fun (u, _, _, _, _) -> u) passes);
  }

(* the farm's per-chunk cost beyond the workers' own handling: replay
   one-sample Monte-Carlo chunks (the flow's chunk size) of a front
   design and subtract the workers' handler time *)
let farm_overhead_ms (cfg : H.config) coord workers params =
  let handled () =
    List.fold_left
      (fun acc w ->
        acc
        +. jnum [ "histograms"; "dist.latency.eval"; "sum" ] (worker_metrics w))
      0. workers
  in
  let net = H.circuit_netlist cfg (T.vco_params_of_vector params) in
  let local streams =
    Array.map
      (fun s ->
        let sample = Repro_circuit.Process.sample cfg.H.process s net in
        match V.characterise_netlist ~options:cfg.H.measure sample with
        | Ok p -> Ok p
        | Error f -> Error (V.failure_to_string f))
      streams
  in
  let streams =
    Repro_util.Prng.split_n (Repro_util.Prng.create cfg.H.seed) 4
  in
  let h0 = handled () in
  let total = ref 0. in
  Array.iter
    (fun s ->
      let t0 = now () in
      ignore
        (Repro_dist.Coordinator.mc_bulk coord ~salt:(H.config_salt cfg)
           ~params ~local [| s |]);
      total := !total +. (now () -. t0))
    streams;
  let h1 = handled () in
  (!total -. (h1 -. h0)) /. float_of_int (Array.length streams) *. 1e3

(* ---- checks ---------------------------------------------------------- *)

let perf_of_row (r : Checks.front_row) =
  { V.kvco = r.Checks.kvco; ivco = r.Checks.ivco; jvco = r.Checks.jvco;
    fmin = r.Checks.fmin; fmax = r.Checks.fmax }

let front_query model (r : Checks.front_row) =
  let kvco = r.Checks.kvco and ivco = r.Checks.ivco in
  {
    Checks.a_jvco = PT.jvco_of model ~kvco ~ivco;
    a_fmin = PT.fmin_of model ~kvco ~ivco;
    a_fmax = PT.fmax_of model ~kvco ~ivco;
    a_deltas =
      [|
        PT.kvco_delta model kvco;
        PT.ivco_delta model ivco;
        PT.jvco_delta model r.Checks.jvco;
        PT.fmin_delta model r.Checks.fmin;
        PT.fmax_delta model r.Checks.fmax;
      |];
    a_params = T.vco_vector_of_params (PT.params_of_perf model (perf_of_row r));
  }

(* the two extreme-gain designs of a front, re-measured at 1/8 of the
   flow's time step; one outcome per design *)
let refined_checks (cfg : H.config) (rows : Checks.front_row array) =
  let fine = { cfg.H.measure with V.dt = cfg.H.measure.V.dt /. 8. } in
  [ rows.(0); rows.(Array.length rows - 1) ]
  |> List.map (fun (r : Checks.front_row) ->
         match
           V.characterise ~options:fine (T.vco_params_of_vector r.Checks.params)
         with
         | Ok refined -> Checks.refined ~nominal:(perf_of_row r) ~refined
         | Error f -> Checks.fail "dt/8: %s" (V.failure_to_string f))

let system_checks (cfg : H.config) (res : H.result) =
  [
    Checks.rows res.H.rows;
    Checks.selection ~spec:cfg.H.spec res.H.rows res.H.selected;
    (match res.H.yield with
    | Some y -> Checks.yield_estimate ~samples:cfg.H.scale.H.yield_samples y
    | None -> Ok ());
  ]

(* serial-flow reference artefacts, kept per executable and seed so a
   dist-flow round compares against the flow-tiny artefacts of its seed *)
let reference_dir ~workdir seed =
  let root = Filename.concat (Filename.dirname workdir) "ref" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  Filename.concat root (Printf.sprintf "%s-%d" exe seed)

let store_reference ~src dst =
  if not (Sys.file_exists dst) then begin
    let tmp =
      fresh_dir (Filename.dirname dst)
        (Filename.basename dst ^ ".tmp" ^ string_of_int (Unix.getpid ()))
    in
    List.iter
      (fun f ->
        Out_channel.with_open_bin (Filename.concat tmp f) (fun oc ->
            output_string oc (read_file (Filename.concat src f))))
      (Checks.tbl_files src);
    try Sys.rename tmp dst with Sys_error _ -> rm_rf tmp
  end

let serial_reference ~workdir seed =
  let dst = reference_dir ~workdir seed in
  if not (Sys.file_exists dst) then begin
    let dir = fresh_dir workdir "reference" in
    ignore (H.run (flow_config ~model_dir:dir seed));
    store_reference ~src:dir dst;
    rm_rf dir
  end;
  dst

(* ---- one round ------------------------------------------------------ *)

(* what the timed work leaves for the operation count, the checks and
   the ledger, all read before anything runs the simulator again *)
type timed = {
  res : H.result;
  t0 : float;
  t1 : float;
  cpu_s : float;
  rss_mb : float;
  alloc_mb : float;
  c0 : snapshot;
  c1 : snapshot;
  mc_sample : hstat;
  queue : hstat;
  wm : Json.t list;  (** each eval-worker's /v1/metrics *)
}

let delta tm name = counter_in tm.c1 name - counter_in tm.c0 name
let timer tm name = timer_in tm.c1 name -. timer_in tm.c0 name
let wsum tm path = List.fold_left (fun acc j -> acc +. jnum path j) 0. tm.wm
let wcount tm name = int_of_float (wsum tm [ "counters"; name ])

let run_timed w (p : prepared) ~pll_query =
  let workers = match p.farm with Some (_, ws) -> ws | None -> [] in
  let remote =
    Option.map (fun (c, _) -> Repro_dist.Coordinator.remote c) p.farm
  in
  print_endline "ready";
  let c0 = E.Telemetry.snapshot () in
  let w_cpu0 = List.map (fun w -> proc_cpu_s w.pid) workers in
  let a0 = allocated_bytes () in
  let cpu0 = self_cpu_s () in
  let t0 = now () in
  let res =
    match (w, p.model) with
    | System_paper, Some model ->
      H.run_system_level ~progress ?pll_query p.cfg ~model
    | _ -> H.run ~progress ?remote p.cfg
  in
  let t1 = now () in
  let cpu1 = self_cpu_s () in
  let a1 = allocated_bytes () in
  let worker_cpu =
    List.fold_left2
      (fun acc w c -> acc +. proc_cpu_s w.pid -. c)
      0. workers w_cpu0
  in
  let rss_mb =
    List.fold_left
      (fun acc w -> acc +. peak_rss_mb (string_of_int w.pid))
      (peak_rss_mb "self") workers
  in
  let c1 = E.Telemetry.snapshot () in
  let mc_sample = hstat "mc.sample.duration" in
  let queue = hstat "dist.queue_wait" in
  {
    res;
    t0;
    t1;
    cpu_s = cpu1 -. cpu0 +. worker_cpu;
    rss_mb;
    alloc_mb = (a1 -. a0) /. 1048576.;
    c0;
    c1;
    mc_sample;
    queue;
    wm = List.map worker_metrics workers;
  }

(* a counter's growth over the circuit level: the system level's
   candidates stay local by design (the flow's model exists only in
   memory), and are not operations of the flows *)
let circuit_delta tm name =
  match find_stamp circuit_end with
  | Some s -> counter_in s.counters name - counter_in tm.c0 name
  | None -> 0

let fallback_evals tm =
  circuit_delta tm "dist.local_points" + delta tm "dist.local_mc_trials"

(* requested evaluations and failed ones.  The flows request circuit-GA
   candidates, Monte-Carlo samples and the verification; a failure is a
   failed sample or verification, or one a worker should have run.
   flow-tiny also re-measures its front's two ends at 1/8 of the time
   step: the flows run one seed, so a design that fails it fails in
   every run (the low-gain end's jitter does today).  system-paper
   requests GA candidates and yield samples. *)
let operations w (cfg : H.config) tm front_rows =
  let res = tm.res in
  match w with
  | System_paper ->
    let yield =
      match res.H.yield with
      | Some _ -> cfg.H.scale.H.yield_samples
      | None -> 0
    in
    (delta tm "eval.runs" + delta tm "eval.cache_hits" + yield, 0)
  | Flow_tiny | Dist_flow ->
    let verified, verify_failed =
      match res.H.verification with
      | Some { H.measured = Error _; _ } -> (1, 1)
      | Some _ -> (1, 0)
      | None -> (0, 0)
    in
    let refined =
      if w = Flow_tiny then refined_checks cfg front_rows else []
    in
    let refined_failed =
      List.filter_map
        (function Error m -> Some m | Ok () -> None)
        refined
    in
    List.iter
      (fun m -> prerr_endline ("perfbench: failed operation: " ^ m))
      refined_failed;
    ( circuit_delta tm "eval.runs" + circuit_delta tm "eval.cache_hits"
      + delta tm "mc.trials" + verified + List.length refined,
      delta tm "mc.failures" + verify_failed + fallback_evals tm
      + List.length refined_failed )

let output_checks w ~workdir ~seed (p : prepared) tm front_rows =
  let res = tm.res in
  match (p.model_dir, p.model) with
  | Some dir, _ ->
    let artefacts =
      match w with
      | Dist_flow ->
        let reference = serial_reference ~workdir seed in
        [ Checks.identical_tables ~reference dir ]
      | _ ->
        store_reference ~src:dir (reference_dir ~workdir seed);
        []
    in
    (Checks.front ~bounds:T.vco_bounds front_rows
     :: Checks.model_reproduces ~query:(front_query (PT.load ~dir))
          front_rows
     :: system_checks p.cfg res)
    @ artefacts
  | None, Some model ->
    Checks.model_reproduces ~query:(front_query model) front_rows
    :: system_checks p.cfg res
  | None, None -> []

let num x = Json.Num x
let int n = Json.Num (float_of_int n)
let ratio a b = if b = 0. then 0. else a /. b
let per a n = ratio a (float_of_int n)

(* a ledger entry, as run.py prints it *)
let metric name unit v =
  (name, Json.Obj [ ("value", v); ("unit", Json.Str unit) ])

(* The per-layer ledger.  Phase times are the program's telemetry
   timers; the gaps between them come from the progress stamps:
   verification is the gap from the end of the system GA to the yield
   phase, persistence the table-model phase plus the cache load and
   save around the flow.  Worker figures come from each worker's
   /v1/metrics. *)
let ledger w (p : prepared) tm ~front_rows ~interp:(interp_points, interp_s)
    =
  let cfg = p.cfg and res = tm.res in
  let phase name = timer tm ("phase." ^ name) in
  let first = match List.rev !stamps with s :: _ -> s.at | [] -> tm.t1 in
  let telemetry_at =
    stamp_at (String.starts_with ~prefix:"engine: telemetry")
    |> Option.value ~default:tm.t1
  in
  let verify_s =
    match stamp_at system_end with
    | Some s ->
      let yield_at = stamp_at (String.starts_with ~prefix:"yield:") in
      Option.value ~default:telemetry_at yield_at -. s
    | None -> 0.
  in
  let persist_s =
    (first -. tm.t0) +. phase "model" +. (tm.t1 -. telemetry_at)
  in
  let layer_sum =
    phase "circuit-ga" +. phase "variation-mc" +. phase "system-ga"
    +. phase "yield" +. verify_s +. persist_s
  in
  let scale = cfg.H.scale in
  let batches =
    (match w with System_paper -> 0 | _ -> scale.H.vco_generations + 1)
    + scale.H.pll_generations + 1
  in
  let candidate_ms =
    match (find_stamp system_start, find_stamp system_end) with
    | Some a, Some b ->
      1e3
      *. per (b.eval.h_sum -. a.eval.h_sum) (b.eval.h_count - a.eval.h_count)
    | _ -> 0.
  in
  let eval_hist field = [ "histograms"; "eval.duration"; field ] in
  let characterise_ms =
    match (w, find_stamp circuit_end) with
    | Dist_flow, _ ->
      (* count-weighted mean of the workers' own medians *)
      let weighted =
        List.fold_left
          (fun acc j ->
            acc +. (jnum (eval_hist "p50") j *. jnum (eval_hist "count") j))
          0. tm.wm
      in
      1e3 *. ratio weighted (wsum tm (eval_hist "count"))
    | _, Some s -> s.eval.h_p50 *. 1e3
    | _, None -> 0.
  in
  let handled = wsum tm [ "histograms"; "dist.latency.eval"; "sum" ] in
  let mc_sample_ms =
    match w with
    | Dist_flow ->
      (* workers time whole requests, not samples: the mean sample is
         their handling time beyond the GA evaluations *)
      1e3
      *. per (handled -. wsum tm (eval_hist "sum"))
           (wcount tm "dist.worker_mc_trials")
    | _ -> tm.mc_sample.h_p50 *. 1e3
  in
  let hits = delta tm "eval.cache_hits" and runs = delta tm "eval.runs" in
  let designs =
    let es = PT.entries res.H.model in
    List.map
      (fun e -> e.Hieropt.Variation_model.design.Hieropt.Vco_problem.params)
      [ es.(0); es.(Array.length es - 1) ]
  in
  let pr = probe cfg designs in
  let overhead_ms =
    match p.farm with
    | Some (coord, ws) ->
      farm_overhead_ms cfg coord ws (T.vco_vector_of_params (List.hd designs))
    | None -> 0.
  in
  let farm_s =
    float_of_int (List.length tm.wm)
    *. (phase "circuit-ga" +. phase "variation-mc")
  in
  let both name = delta tm name + wcount tm name in
  [
    metric "hierarchy.circuit_ga_s" "s" (num (phase "circuit-ga"));
    metric "hierarchy.variation_mc_s" "s" (num (phase "variation-mc"));
    metric "hierarchy.system_ga_s" "s" (num (phase "system-ga"));
    metric "hierarchy.yield_s" "s" (num (phase "yield"));
    metric "hierarchy.verify_s" "s" (num verify_s);
    metric "hierarchy.persist_s" "s" (num persist_s);
    metric "moo.evals_simulated" "count" (int runs);
    metric "moo.generation_overhead_ms" "ms"
      (num
         (1e3
         *. per
              (phase "circuit-ga" +. phase "system-ga" -. timer tm "eval.wall")
              batches));
    metric "engine.cache_hits" "count" (int hits);
    metric "engine.cache_hit_ratio" "ratio"
      (num (per (float_of_int hits) (hits + runs)));
    metric "spice.characterise_ms" "ms" (num characterise_ms);
    metric "spice.mc_sample_ms" "ms" (num mc_sample_ms);
    metric "spice.newton_solves_per_char" "count"
      (num (per (float_of_int pr.newton_solves) pr.chars));
    metric "spice.newton_iters_per_solve" "ratio"
      (num (per (float_of_int pr.iterations) pr.newton_solves));
    metric "spice.newton_iterations" "count" (int (both "solver.refactorise"));
    metric "spice.stamp_us" "us"
      (num ((1e6 *. per pr.newton_s pr.iterations) -. pr.linalg_us));
    metric "linalg.refactorise_us" "us" (num pr.linalg_us);
    metric "linalg.symbolic_factorisations" "count"
      (int (both "solver.symbolic"));
    metric "linalg.refactorise_fallbacks" "count"
      (int (both "solver.refactorise_fallback"));
    metric "behave.candidate_ms" "ms" (num candidate_ms);
    metric "behave.yield_sample_ms" "ms"
      (num (1e3 *. per (phase "yield") (delta tm "yield.samples")));
    metric "interp.points" "count" (int interp_points);
    metric "interp.point_us" "us" (num (1e6 *. per interp_s interp_points));
    metric "interp.inverted_brackets" "count"
      (int (Checks.inverted_brackets res.H.rows));
    metric "interp.ambiguous_spreads" "count"
      (int (Checks.ambiguous_spreads front_rows));
    metric "dist.chunks" "count" (int tm.queue.h_count);
    metric "dist.queue_wait_ms" "ms"
      (num (1e3 *. per tm.queue.h_sum tm.queue.h_count));
    metric "dist.worker_busy_ratio" "ratio" (num (ratio handled farm_s));
    metric "dist.overhead_ms" "ms" (num overhead_ms);
    metric "dist.fallback_evals" "count" (int (fallback_evals tm));
    metric "gc.allocated_mb" "MB" (num tm.alloc_mb);
    metric "obs.trace_overhead_ratio" "ratio" (num pr.overhead);
    metric "obs.attributed_ratio" "ratio" (num (layer_sum /. (tm.t1 -. tm.t0)));
  ]

let round ~workload ~seed ~trace ~workdir =
  E.Config.set_jobs 1;
  let w = workload_of_string workload in
  let p = prepare ~workdir ~seed w in
  (* the system level's table-model queries go through the public
     pll_query hook in every run; only the traced run times them *)
  let interp_points = ref 0 and interp_s = ref 0. in
  let pll_query =
    Option.map
      (fun model ->
        if not trace then PT.eval_points model
        else fun pts ->
          let t0 = now () in
          let r = PT.eval_points model pts in
          interp_s := !interp_s +. (now () -. t0);
          interp_points := !interp_points + Array.length pts;
          r)
      p.model
  in
  let tm = run_timed w p ~pll_query in
  let front_rows =
    Checks.read_front (Option.value ~default:fixture_dir p.model_dir)
  in
  let evals, failed = operations w p.cfg tm front_rows in
  let errors =
    output_checks w ~workdir ~seed p tm front_rows
    |> List.filter_map (function Ok () -> None | Error m -> Some (Json.Str m))
  in
  let layers =
    if trace then
      ledger w p tm ~front_rows ~interp:(!interp_points, !interp_s)
    else []
  in
  stop_workers ();
  Option.iter rm_rf p.model_dir;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("wall_s", num (tm.t1 -. tm.t0));
            ("cpu_s", num tm.cpu_s);
            ("peak_rss_mb", num tm.rss_mb);
            ("evals", int evals);
            ("failed", int failed);
            ("cache_hits", int (delta tm "eval.cache_hits"));
            ("errors", Json.Arr errors);
            ("layers", Json.Obj layers);
          ]))

let setup ~workload ~workdir =
  E.Config.set_jobs 1;
  let p = prepare ~workdir ~seed:2009 (workload_of_string workload) in
  print_endline "ready";
  stop_workers ();
  Option.iter rm_rf p.model_dir

(* the config salt covers everything evaluation depends on; the seed
   is not part of it *)
let worker () =
  E.Config.set_jobs 1;
  let w = Repro_dist.Worker.create ~config:(flow_config 2009) () in
  let server = Repro_dist.Worker.serve ~port:0 ~reactors:1 w in
  Repro_serve.Server.install_signal_handlers server;
  Printf.printf "port %d\n%!" (Repro_serve.Server.port server);
  Repro_serve.Server.wait server

(* the committed system-paper model must be what a seed-2009 tiny flow
   builds today; [--write] replaces it *)
let fixture ~write ~workdir =
  E.Config.set_jobs 1;
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let dir = fresh_dir workdir "fixture" in
  ignore (H.run (flow_config ~model_dir:dir 2009));
  let fresh = read_file (Filename.concat dir "pareto.tbl") in
  let committed = Filename.concat fixture_dir "pareto.tbl" in
  let same = Sys.file_exists committed && read_file committed = fresh in
  rm_rf dir;
  if same then print_endline "fixture matches a seed-2009 tiny flow"
  else if write then begin
    Out_channel.with_open_bin committed (fun oc -> output_string oc fresh);
    print_endline "fixture rewritten from a seed-2009 tiny flow"
  end
  else begin
    print_endline
      "fixture differs from a seed-2009 tiny flow (rerun with --write)";
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with
    | Some v -> v
    | None -> failwith ("missing " ^ name)
  in
  match args with
  | "round" :: _ ->
    round ~workload:(req "--workload")
      ~seed:(int_of_string (req "--seed"))
      ~trace:(req "--trace" = "1") ~workdir:(req "--workdir")
  | "setup" :: _ ->
    setup ~workload:(req "--workload") ~workdir:(req "--workdir")
  | "worker" :: _ -> worker ()
  | "fixture" :: _ ->
    fixture ~write:(List.mem "--write" args) ~workdir:".perfbench"
  | _ ->
    prerr_endline "usage: perfbench.exe (round|setup|worker|fixture) [options]";
    exit 2
