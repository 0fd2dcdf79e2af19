(* The offline workload: the paper's reproduction artifacts at a pinned
   1 domain.  Three phases: the 15 experiment tables at Quick speed
   (repeated, since one pass takes about a second), fuzzing over the
   default protocol mix, and the depth-10 model check.

   The gated metrics are CPU times.  At 2 domains no time held still on
   a shared 2-vCPU host: under the hypervisor's steal a domain waiting
   for a descheduled one spins, and CPU per model-check state rose by up
   to 70%.  A single domain is never charged for steal; the pool's
   1-versus-2-domain speed-up is still measured per layer. *)

module E = Harness.Experiments

let now = Spans.now_ns
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

let cpu_timed f =
  let c0 = Procfs.self_cpu_s () in
  let r = f () in
  (Procfs.self_cpu_s () -. c0, r)

(* MD5 of the rendered Quick tables; byte-identical at 1 and 2 domains *)
let tables_digest = "aa38f2df278f0c58966f672f97892d8e"

let mcheck_states = 190_003

let domains = 1

(* fuzz scenarios per round, in chunks timed one by one, each chunk
   followed by a table pass; a round's runs alone support a p99 *)
let fuzz_runs = 1000
let fuzz_chunks = 4

let render tables =
  let b = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer b in
  Harness.Report.print_all fmt tables;
  Format.pp_print_flush fmt ();
  Buffer.contents b

let digest_of_tables () =
  Digest.to_hex (Digest.string (render (E.all ~speed:E.Quick ())))

(* one timed pass over all tables: (seconds, digest matches) *)
let table_pass () =
  let t0 = now () in
  let d = digest_of_tables () in
  if d <> tables_digest then Printf.eprintf "repro: table digest %s\n%!" d;
  (seconds_since t0, d = tables_digest)

let mcheck_cfg =
  { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1; gate = true }

let mcheck_run () =
  Mcheck.Explorer.run ~max_depth:10 ~domains mcheck_cfg ~max_states:1_000_000
    ~properties:(Mcheck.Explorer.all_properties mcheck_cfg)

(* A fixed sample of model states: breadth-first from the initial state,
   the first [k] states discovered. *)
let sample_states k =
  let seen = Hashtbl.create 1024 in
  let out = ref [] and count = ref 0 in
  let q = Queue.create () in
  Queue.add (Mcheck.Model.initial mcheck_cfg) q;
  while !count < k && not (Queue.is_empty q) do
    let st = Queue.pop q in
    let key = Mcheck.Model.fingerprint st in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out := st :: !out;
      incr count;
      List.iter (fun s -> Queue.add s q) (Mcheck.Model.successors mcheck_cfg st)
    end
  done;
  List.rev !out

(* mean cost of [f] over [xs], repeated [reps] times, in ns per call *)
let time_each ~reps f xs =
  let t0 = now () in
  for _ = 1 to reps do
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
  done;
  float_of_int (now () - t0) /. float_of_int (reps * List.length xs)

let engine_ns_per_event () =
  let sc = Harness.Hotpath.scenario ~n:100 ~horizon:100. () in
  let run () =
    (Sim.Engine.run sc Harness.Hotpath.pinger).Sim.Engine.events_processed
  in
  ignore (run () : int);
  let t0 = now () in
  let events = run () in
  float_of_int (now () - t0) /. float_of_int events

let invariants_check_us () =
  match E.replay "e1" with
  | None -> 0.
  | Some r ->
      let reps = 20 in
      let t0 = now () in
      for _ = 1 to reps do
        ignore (Harness.Invariants.check r.E.trace : Harness.Invariants.report)
      done;
      float_of_int (now () - t0) /. 1e3 /. float_of_int reps

(* One set-up, up to the first timed phase: the fuzz scenarios
   generated.  Returns (CPU seconds, scenarios). *)
let set_up ~seed =
  cpu_timed (fun () ->
      List.init fuzz_runs (fun index -> Harness.Fuzz.generate ~seed ~index ()))

let run ~seed ~seconds ~trace ~spans =
  let scaled s = s *. seconds /. 20. in
  let steal0 = Procfs.host_cpu () in
  Harness.Measure.with_domains domains (fun () ->
      (* set-up, fifteen times, since one takes only milliseconds; the
         last one's scenarios are used.  Then one untimed pass over the
         tables warms the caches. *)
      let seed64 = Int64.of_int seed in
      let setups = Array.init 15 (fun _ -> set_up ~seed:seed64) in
      let setup_s = Stats.median (Array.map fst setups) in
      let scenarios = snd setups.(14) in
      let warm = table_pass () in
      (* Rounds of the three phases, interleaved so that every metric's
         repeats spread over the whole run; each metric is the median
         over its repeats.  Every round fuzzes the same scenarios, so the
         rounds differ only in timing. *)
      let chunks =
        List.init fuzz_chunks (fun k ->
            List.filteri (fun i _ -> i mod fuzz_chunks = k) scenarios)
      in
      (* one timed chunk: ((runs/s, events/s), per-run results) *)
      let fuzz_chunk_run chunk =
        let t0 = now () in
        let runs =
          Harness.Measure.par_map
            (fun s ->
              let t0 = now () in
              let o = Harness.Fuzz.run_one s in
              (t0, now (), o.Harness.Fuzz.violations = [], o.Harness.Fuzz.events))
            chunk
        in
        let secs = seconds_since t0 in
        let events = List.fold_left (fun acc (_, _, _, e) -> acc + e) 0 runs in
        ((float_of_int (List.length chunk) /. secs, float_of_int events /. secs), runs)
      in
      let mcheck_round () =
        let cpu, o = cpu_timed mcheck_run in
        (cpu *. 1e6 /. float_of_int o.Mcheck.Explorer.states, o)
      in
      (* each phase starts on a collected heap, so its time does not
         include finishing the previous phase's garbage *)
      let clean f =
        Gc.full_major ();
        f ()
      in
      (* The host's speed drifts over seconds, so table passes and fuzz
         chunks alternate, spreading each metric's repeats over the run.
         The model check, the longest phase, runs every other round. *)
      let t_rounds = now () in
      let passes = ref [] and fuzzed = ref [] and checked = ref [] in
      let rounds = ref 0 in
      while !rounds < 3 || seconds_since t_rounds < scaled 17. do
        let h0 = Procfs.host_cpu () in
        let pf =
          List.map
            (fun c ->
              let p = clean table_pass in
              (p, clean (fun () -> fuzz_chunk_run c)))
            chunks
        in
        let m = if !rounds mod 2 = 0 then Some (clean mcheck_round) else None in
        passes := List.map fst pf @ !passes;
        fuzzed := List.map snd pf @ !fuzzed;
        Option.iter (fun m -> checked := m :: !checked) m;
        incr rounds;
        Printf.eprintf
          "repro round %d: tables %s ms; fuzz %s events/s;%s steal %.1f%%\n%!"
          !rounds
          (String.concat " "
             (List.map (fun ((s, _), _) -> Printf.sprintf "%.0f" (s *. 1e3)) pf))
          (String.concat " "
             (List.map (fun (_, ((_, e), _)) -> Printf.sprintf "%.0f" e) pf))
          (match m with
          | Some (us, _) -> Printf.sprintf " mcheck %.2f us CPU/state;" us
          | None -> "")
          (Procfs.steal_pct h0 (Procfs.host_cpu ()))
      done;
      let passes = !passes and fuzzed = !fuzzed and checked = !checked in
      let median f xs = Stats.median (Array.of_list (List.map f xs)) in
      let tables_s = median fst passes in
      let fuzz_rate = median (fun ((r, _), _) -> r) fuzzed in
      let fuzz_events = median (fun ((_, e), _) -> e) fuzzed in
      let mcheck_cpu_us = median fst checked in
      let tables_ok = snd warm && List.for_all snd passes in
      let runs = List.concat_map snd fuzzed in
      let k_run = Spans.kind spans "fuzz.run_one" in
      List.iteri
        (fun i (t0, t1, _, _) ->
          Spans.record spans ~kind:k_run ~id:i ~parent:(-1)
            ~start:t0 ~stop:t1)
        runs;
      let run_ms =
        Stats.sorted
          (Array.of_list
             (List.map (fun (t0, t1, _, _) -> float_of_int (t1 - t0) /. 1e6) runs))
      in
      let fuzz_clean = List.for_all (fun (_, _, ok, _) -> ok) runs in
      let summary =
        Harness.Fuzz.campaign ~budget:(Stdlib.max 100 (int_of_float (scaled 300.)))
          ~seed:seed64 ()
      in
      let mc_ok =
        List.for_all
          (fun (_, o) ->
            o.Mcheck.Explorer.states = mcheck_states
            && o.Mcheck.Explorer.violation = None)
          checked
      in
      let _, last = List.hd checked in
      let pct q =
        match Stats.percentile run_ms q with Some v -> v | None -> Float.infinity
      in
      let e2e =
        [
          ("setup_s", setup_s);
          ("rss_mb", Procfs.self_peak_rss_mb ());
          ("cpu_us_per_op", mcheck_cpu_us);
        ]
      in
      let traced =
        if trace then begin
          let per_table =
            List.map
              (fun id ->
                let f = Option.get (E.by_id id) in
                let t0 = now () in
                ignore (f ~speed:E.Quick () : Harness.Report.table);
                ("tables." ^ id ^ "_ms", float_of_int (now () - t0) /. 1e6))
              E.ids
          in
          let pass_at d = Harness.Measure.with_domains d (fun () -> fst (table_pass ())) in
          let serial = pass_at 1 in
          let pinned = pass_at 2 in
          let sample = sample_states 2000 in
          [
            ("pool.speedup", serial /. pinned);
            ("engine.ns_per_event", engine_ns_per_event ());
            ( "engine.alloc_words_per_event",
              Harness.Hotpath.alloc_words_per_event Harness.Hotpath.pinger ~n:3
                ~horizon_lo:1.0 ~horizon_hi:11.0 );
            ("invariants.check_us", invariants_check_us ());
            ( "mcheck.successors_us",
              time_each ~reps:5 (Mcheck.Model.successors mcheck_cfg) sample /. 1e3 );
            ( "mcheck.fingerprint_ns",
              time_each ~reps:20 Mcheck.Model.fingerprint sample );
          ]
          @ per_table
        end
        else []
      in
      let layer =
        [
          ("repro.rounds", float_of_int !rounds);
          ("wall.time_ms", tables_s *. 1e3);
          ("wall.throughput_per_s", fuzz_events);
          ("host.steal_pct", Procfs.steal_pct steal0 (Procfs.host_cpu ()));
          ("fuzz.runs_per_s", fuzz_rate);
          ("fuzz.events", float_of_int summary.Harness.Fuzz.total_events);
          ("fuzz.msgs", float_of_int summary.Harness.Fuzz.total_msgs);
          ("fuzz.shrink_tries", float_of_int summary.Harness.Fuzz.total_shrink_tries);
          ("fuzz.run_us.p50", pct 0.5 *. 1e3);
          ("fuzz.run_us.p99", pct 0.99 *. 1e3);
          ("mcheck.states", float_of_int last.Mcheck.Explorer.states);
          ("mcheck.transitions", float_of_int last.Mcheck.Explorer.transitions);
          ( "mcheck.visited_mb",
            float_of_int (last.Mcheck.Explorer.table_words * (Sys.word_size / 8))
            /. 1e6 );
        ]
        @ traced
      in
      let checks =
        [
          ("table output matches the committed digest", tables_ok);
          ("timed fuzz runs violate nothing", fuzz_clean);
          ("fuzz campaign has no failures", summary.Harness.Fuzz.failures = 0);
          ("mcheck finds 190003 states and no violation", mc_ok);
        ]
      in
      let failed_runs =
        List.length (List.filter (fun (_, _, ok, _) -> not ok) runs)
      in
      {
        Outcome.attempted =
          (15 * (1 + List.length passes))
          + List.length runs + summary.Harness.Fuzz.runs + List.length checked;
        failed =
          failed_runs + summary.Harness.Fuzz.failures
          + List.length (List.filter (fun (_, ok) -> not ok) checks);
        checks;
        e2e;
        layer;
      })
