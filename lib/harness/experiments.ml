type speed = Quick | Full

(* All experiments share one parameterization: delta = 10ms, stabilization
   after 50 delta of arbitrary behaviour. *)
let delta = 0.01

let ts = 0.5

let sizes = function Quick -> [ 3; 5; 9; 17 ] | Full -> [ 3; 5; 9; 17; 33; 65 ]

let seeds = function Quick -> 3 | Full -> 10

let seed_base = 42L

(* Safety violations and run metrics are collected per row.  Rows fan
   out across domains ({!Measure.par_map}), so each row body receives a
   private collector; {!par_collect} merges notes and registries in row
   order, which keeps the rendered tables byte-identical whatever
   SIM_DOMAINS is (registry merges are commutative sums anyway). *)
type obs = { notes : string list ref; reg : Sim.Registry.t }

(* Process-wide metrics accumulator, fed by every [par_collect] so bench
   can dump one aggregate registry into BENCH_RESULTS.json.  Experiment
   bodies run on worker domains, hence the mutex. *)
let collector = Sim.Registry.create ()

let collector_mu = Mutex.create ()

let reset_metrics () =
  Mutex.protect collector_mu (fun () -> Sim.Registry.reset collector)

let metrics_snapshot () =
  Mutex.protect collector_mu (fun () ->
      let c = Sim.Registry.create () in
      Sim.Registry.merge_into ~dst:c collector;
      c)

(* Fold one run's counters/histograms into the row's registry.  Called
   by [check]; experiments that skip the generic safety check (SMR
   checksum decisions, leader election) call it directly. *)
let record_metrics obs r =
  Sim.Registry.merge_into ~dst:obs.reg r.Sim.Engine.metrics

let check obs r =
  record_metrics obs r;
  match Measure.check_safety r with
  | Ok () -> ()
  | Error msg ->
      obs.notes :=
        Printf.sprintf "%s (scenario %s, seed %Ld)" msg
          r.Sim.Engine.scenario.Sim.Scenario.name
          r.Sim.Engine.scenario.Sim.Scenario.seed
        :: !(obs.notes)

(* [par_collect xs f] maps [f] over [xs] on the sweep pool, giving each
   element a fresh observability collector; returns the results in input
   order, the notes merged in input order (each element's notes in
   occurrence order), and the per-element registries merged into one. *)
let par_collect xs f =
  let triples =
    Measure.par_map
      (fun x ->
        let obs = { notes = ref []; reg = Sim.Registry.create () } in
        let y = f obs x in
        (y, List.rev !(obs.notes), obs.reg))
      xs
  in
  let merged = Sim.Registry.create () in
  List.iter
    (fun (_, _, reg) -> Sim.Registry.merge_into ~dst:merged reg)
    triples;
  Mutex.protect collector_mu (fun () ->
      Sim.Registry.merge_into ~dst:collector merged);
  ( List.map (fun (y, _, _) -> y) triples,
    List.concat_map (fun (_, ns, _) -> ns) triples,
    merged )

(* One deterministic summary line per table, from the table's merged
   registry.  Only sums and bucket quantiles appear, so the line is
   byte-identical across SIM_DOMAINS settings. *)
let metrics_note reg =
  let c name = Sim.Registry.counter_total reg name in
  let q p =
    match Sim.Registry.quantile reg "decision_latency_delta" p with
    | Some v -> Printf.sprintf "%gd" v
    | None -> "n/a"
  in
  let protocol_counters =
    List.filter_map
      (fun (name, label) ->
        let v = c name in
        if v = 0 then None else Some (Printf.sprintf "%s %d" label v))
      [
        ("phase1_starts", "phase-1 starts");
        ("session_entries", "session entries");
      ]
  in
  Printf.sprintf
    "observability: %d runs; msgs sent/delivered/dropped %d/%d/%d%s; \
     decision latency p50<=%s p95<=%s"
    (c "runs") (c "msgs_sent") (c "msgs_delivered") (c "msgs_dropped")
    (match protocol_counters with
    | [] -> ""
    | cs -> "; " ^ String.concat ", " cs)
    (q 0.5) (q 0.95)

let drain_notes ~reg ~pass_note = function
  | [] -> [ pass_note; metrics_note reg ]
  | notes ->
      ("SAFETY VIOLATIONS DETECTED:" :: notes)
      @ [ pass_note; metrics_note reg ]

(* ------------------------------------------------------------------ *)
(* E1: modified Paxos decides in O(delta), independent of N            *)
(* ------------------------------------------------------------------ *)

let e1 ?(speed = Quick) () =
  let cfg_for n = Dgl.Config.make ~n ~delta () in
  let bound = Dgl.Config.decision_bound (cfg_for 3) /. delta in
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let faults = Sim.Fault.make ~initially_down:victims [] in
        let live = Measure.procs ~n ~except:victims () in
        let run ~network ~injections seed =
          let sc =
            Sim.Scenario.make ~name:"e1" ~n ~ts ~delta ~seed ~network ~faults
              ()
          in
          let r = Sim.Engine.run ~injections sc (Dgl.Modified_paxos.protocol (cfg_for n)) in
          check obs r;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let lat_det =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              run ~network:Sim.Network.deterministic_after_ts
                ~injections:
                  (Adversaries.dgl_session1_injections ~n ~from:ts
                     ~spacing:(2. *. delta) ~victims)
                seed)
        in
        let lat_rand =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              run
                ~network:(Sim.Network.eventually_synchronous ())
                ~injections:[] seed)
        in
        let all = lat_det @ lat_rand in
        let worst = List.fold_left Float.max 0. all in
        [
          string_of_int n;
          string_of_int (List.length victims);
          Report.cell_f (Sim.Metrics.mean all);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E1" ~title:"Modified Paxos: decision latency after TS"
    ~claim:
      "every process nonfaulty at TS decides by TS + eps + 3*tau + 5*delta, \
       independent of N (Sec. 4)"
    ~columns:[ "n"; "faulty"; "mean(d)"; "worst(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "adversaries: faulty minority + injected session-1 obsolete \
            ballots (deterministic net), and 50%-loss random pre-TS net; \
            latency in units of delta"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E2: traditional Paxos, O(N delta) under obsolete ballots            *)
(* ------------------------------------------------------------------ *)

let e2 ?(speed = Quick) () =
  let theta = 2. *. delta in
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let faults = Sim.Fault.make ~initially_down:victims [] in
        let live = Measure.procs ~n ~except:victims () in
        let t0 =
          Adversaries.traditional_first_start ~ts ~theta ~stabilize_delay:delta
        in
        let injections =
          Adversaries.paxos_aligned_injections ~n ~delta ~t0 ~leader:0
            ~victims
        in
        let sc =
          Sim.Scenario.make ~name:"e2" ~n ~ts ~delta ~seed:seed_base
            ~network:Sim.Network.deterministic_after_ts ~faults ()
        in
        let oracle = Baselines.Leader_election.make ~n ~ts ~delta ~faults () in
        let proto = Baselines.Traditional_paxos.protocol ~n ~delta ~oracle () in
        let r = Sim.Engine.run ~injections sc proto in
        check obs r;
        let worst = Measure.worst_latency r ~procs:live ~from_time:ts ~delta in
        let k = List.length victims in
        [
          string_of_int n;
          string_of_int k;
          Report.cell_latency worst;
          Report.cell_f (worst /. float_of_int k);
        ])
  in
  Report.make ~id:"E2"
    ~title:"Traditional Paxos: obsolete high ballots cost O(N*delta)"
    ~claim:
      "each of up to ceil(N/2)-1 obsolete ballots forces another Start \
       Phase 1 round trip, so deciding can take TS + O(N*delta) (Sec. 2)"
    ~columns:[ "n"; "obsolete"; "worst(d)"; "delta per ballot" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "deterministic-delay net; ballot i lands mid-phase-2 of the \
            leader's retry i; expect ~4 delta per obsolete ballot \
            (linear), vs E1's flat bound"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E3: rotating coordinator, O(N delta) with dead coordinators         *)
(* ------------------------------------------------------------------ *)

let e3 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let f = n - Consensus.Quorum.majority n in
        let dead = List.init f (fun i -> i) in
        let faults = Sim.Fault.make ~initially_down:dead [] in
        let live = Measure.procs ~n ~except:dead () in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"e3" ~n ~ts ~delta ~seed
                  ~network:Sim.Network.silent_until_ts ~faults ()
              in
              let proto = Baselines.Rotating_coordinator.protocol ~n ~delta () in
              let r = Sim.Engine.run sc proto in
              check obs r;
              Measure.worst_latency r ~procs:live ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          string_of_int n;
          string_of_int f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f (worst /. float_of_int f);
        ])
  in
  Report.make ~id:"E3"
    ~title:"Rotating coordinator: dead coordinators cost O(N*delta)"
    ~claim:
      "rounds 0..ceil(N/2)-2 have faulty coordinators and each burns one \
       O(delta) timeout before the first live coordinator decides (Sec. 3)"
    ~columns:[ "n"; "dead coords"; "mean(d)"; "worst(d)"; "delta per round" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "the ceil(N/2)-1 lowest-id processes are down; round timeout = \
            4 delta, so expect ~4 delta per dead coordinator"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E4: restart after TS decides within O(delta) of the restart         *)
(* ------------------------------------------------------------------ *)

let e4 ?(speed = Quick) () =
  let n = 5 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let bound = Dgl.Config.restart_bound cfg /. delta in
  let offsets = [ 10.; 20.; 40.; 80. ] in
  let rows, notes, reg =
    par_collect offsets (fun obs off ->
        let restart_at = ts +. (off *. delta) in
        let faults =
          Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.) ~restart_at 2
        in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"e4" ~n ~ts ~delta ~seed
                  ~network:(Sim.Network.eventually_synchronous ())
                  ~faults
                  ~horizon:(restart_at +. (200. *. delta))
                  ()
              in
              let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
              check obs r;
              Measure.worst_latency r ~procs:[ 2 ] ~from_time:restart_at
                ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "TS + %.0f delta" off;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E4" ~title:"Modified Paxos: decision latency after restart"
    ~claim:
      "a process restarting at T' > TS decides within O(delta) of T': a new \
       session starts every tau and completes within 5 delta (Sec. 4)"
    ~columns:[ "restart at"; "mean(d)"; "worst(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; process 2 crashes before TS and restarts at the given \
            offset; latency measured from the restart instant; decision \
            broadcast OFF (the paper's optional optimization would shrink \
            this to ~1 delta)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E5: modified B-Consensus decides in O(delta), independent of N      *)
(* ------------------------------------------------------------------ *)

let e5 ?(speed = Quick) () =
  let dgl_ref = Dgl.Config.decision_bound (Dgl.Config.make ~n:3 ~delta ()) /. delta in
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let faults = Sim.Fault.make ~initially_down:victims [] in
        let live = Measure.procs ~n ~except:victims () in
        let run ~network seed =
          let sc =
            Sim.Scenario.make ~name:"e5" ~n ~ts ~delta ~seed ~network ~faults
              ()
          in
          let proto =
            Bconsensus.Modified_b_consensus.protocol ~n ~delta ~rho:0. ()
          in
          let r = Sim.Engine.run sc proto in
          check obs r;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base
            (run ~network:Sim.Network.silent_until_ts)
          @ Measure.over_seeds ~seeds:(seeds speed) ~base:7777L
              (run ~network:(Sim.Network.eventually_synchronous ()))
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          string_of_int n;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f dgl_ref;
        ])
  in
  Report.make ~id:"E5"
    ~title:"Modified B-Consensus: decision latency after TS"
    ~claim:
      "the oracle-based leaderless algorithm also decides within O(delta) \
       of TS; \"the actual maximum delay is about the same as for the \
       modified Paxos algorithm\" (Sec. 5)"
    ~columns:[ "n"; "mean(d)"; "worst(d)"; "mod-Paxos bound(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "faulty minority down; both silent and 50%-loss pre-TS networks; \
            2 delta oracle hold-back; flat in n like E1"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E6: epsilon trade-off, messages vs latency                          *)
(* ------------------------------------------------------------------ *)

let e6 ?(speed = Quick) () =
  let n = 5 in
  let eps_factors = [ 0.125; 0.25; 0.5; 1.; 2.; 4. ] in
  let window = 30. *. delta in
  let rows, notes, reg =
    par_collect eps_factors (fun obs f ->
        let epsilon = f *. delta in
        let sigma = Float.max (5. *. delta) (4. *. delta +. epsilon) in
        let cfg = Dgl.Config.make ~n ~delta ~epsilon ~sigma () in
        let bound = Dgl.Config.decision_bound cfg /. delta in
        (* latency: silent-before-TS scenario *)
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"e6lat" ~n ~ts ~delta ~seed
                  ~network:Sim.Network.silent_until_ts
                  ~horizon:(ts +. (300. *. delta))
                  ()
              in
              let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n ())
                ~from_time:ts ~delta)
        in
        (* steady-state message rate: keep running past the decision *)
        let rate =
          let sc =
            Sim.Scenario.make ~name:"e6rate" ~n ~ts:0. ~delta ~seed:seed_base
              ~network:Sim.Network.always_synchronous
              ~stop_on_all_decided:false ~record_trace:true
              ~horizon:(2. *. window) ()
          in
          let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
          check obs r;
          let sends =
            Sim.Trace.sends_in_window r.Sim.Engine.trace ~lo:window
              ~hi:(2. *. window)
          in
          float_of_int sends /. (window /. delta) /. float_of_int n
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.3f delta" f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_f rate;
        ])
  in
  Report.make ~id:"E6" ~title:"Epsilon trade-off: message rate vs latency"
    ~claim:
      "sending 1a messages less often (larger epsilon) reduces the \
       steady-state message rate but increases how long decisions take \
       after stabilization; \"frequent message sending is an unavoidable \
       cost of fast recovery\" (Sec. 4)"
    ~columns:
      [ "epsilon"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "msgs/proc/delta" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; latency under the silent-until-TS adversary; message rate \
            in the steady state of an already-stable run (algorithm keeps \
            executing after deciding, as in the paper's model)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E7: stable case, phase 1 pre-executed                               *)
(* ------------------------------------------------------------------ *)

let e7 ?(speed = Quick) () =
  let n = 5 in
  ignore speed;
  let run obs ~prestart =
    let options = { Dgl.Modified_paxos.default_options with prestart } in
    let cfg = Dgl.Config.make ~n ~delta () in
    let sc =
      Sim.Scenario.make
        ~name:(if prestart then "e7-prestarted" else "e7-cold")
        ~n ~ts:0. ~delta ~seed:seed_base
        ~network:Sim.Network.deterministic_after_ts ()
    in
    let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol ~options cfg) in
    check obs r;
    Measure.worst_latency r ~procs:(Measure.procs ~n ()) ~from_time:0. ~delta
  in
  let lats, notes, reg =
    par_collect [ true; false ] (fun obs prestart -> run obs ~prestart)
  in
  let pre, cold =
    match lats with [ a; b ] -> (a, b) | _ -> assert false
  in
  let rows =
    [
      [ "phase 1 pre-executed"; Report.cell_latency pre; "2 one-way delays" ];
      [ "cold start"; Report.cell_latency cold; "4 one-way delays + eps" ];
    ]
  in
  Report.make ~id:"E7" ~title:"Stable case: message delays to decide"
    ~claim:
      "with phase 1 executed in advance, all nonfaulty processes decide \
       within 3 message delays of the proposal (2a + 2b after the leader \
       holds the value; the third delay is the client's proposal reaching \
       the leader, which the simulation starts past) (Sec. 4)"
    ~columns:[ "mode"; "decision time (delta)"; "expected" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, stable from time 0, deterministic delta-delay network; \
            every message takes exactly delta, so message delays are \
            directly readable from the decision time"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E8: sigma sensitivity                                               *)
(* ------------------------------------------------------------------ *)

let e8 ?(speed = Quick) () =
  let n = 5 in
  let sigmas = [ 4.05; 5.; 6.; 8.; 10. ] in
  let rows, notes, reg =
    par_collect sigmas (fun obs s ->
        let sigma = s *. delta in
        let cfg = Dgl.Config.make ~n ~delta ~sigma () in
        let bound = Dgl.Config.decision_bound cfg /. delta in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"e8" ~n ~ts ~delta ~seed
                  ~network:Sim.Network.silent_until_ts ()
              in
              let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.2f delta" s;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E8" ~title:"Sigma sensitivity"
    ~claim:
      "the decision bound eps + 3*tau + 5*delta grows with sigma through \
       tau = max(2*delta + eps, sigma); taking sigma ~ 4*delta gives the \
       paper's ~17*delta figure (Sec. 4)"
    ~columns:[ "sigma"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:"n=5, silent-until-TS; larger sigma = lazier session \
                     turnover = later worst-case decisions"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E9: clock drift                                                     *)
(* ------------------------------------------------------------------ *)

let e9 ?(speed = Quick) () =
  let n = 5 in
  let rhos = [ 0.; 0.02; 0.05; 0.1 ] in
  let rows, notes, reg =
    par_collect rhos (fun obs rho ->
        let cfg = Dgl.Config.make ~n ~delta ~rho () in
        let bound = Dgl.Config.decision_bound cfg /. delta in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"e9" ~n ~ts ~delta ~rho ~seed
                  ~network:Sim.Network.silent_until_ts ()
              in
              let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.2f" rho;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E9" ~title:"Clock-rate error tolerance"
    ~claim:
      "timers only need a known rate-error bound rho << 1: the session \
       timer is set so its real duration stays inside [4*delta, sigma] for \
       every admissible rate (Sec. 4)"
    ~columns:[ "rho"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, sigma = 5*delta (feasible for rho <= 0.11); per-process \
            clock rates drawn from [1-rho, 1+rho]"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A1: session-gate ablation                                           *)
(* ------------------------------------------------------------------ *)

let a1 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let faults = Sim.Fault.make ~initially_down:victims [] in
        let live = Measure.procs ~n ~except:victims () in
        let cfg = Dgl.Config.make ~n ~delta () in
        let run ~gate ~injections =
          let options =
            { Dgl.Modified_paxos.default_options with session_gate = gate }
          in
          let sc =
            Sim.Scenario.make ~name:"a1" ~n ~ts ~delta ~seed:seed_base
              ~network:Sim.Network.deterministic_after_ts ~faults ()
          in
          let r =
            Sim.Engine.run ~injections sc
              (Dgl.Modified_paxos.protocol ~options cfg)
          in
          check obs r;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let high =
          Adversaries.dgl_high_session_injections ~n ~from:ts
            ~spacing:(3. *. delta) ~victims
        in
        let admissible =
          Adversaries.dgl_session1_injections ~n ~from:ts
            ~spacing:(2. *. delta) ~victims
        in
        let ungated = run ~gate:false ~injections:high in
        let gated = run ~gate:true ~injections:admissible in
        [
          string_of_int n;
          string_of_int (List.length victims);
          Report.cell_latency ungated;
          Report.cell_latency gated;
        ])
  in
  Report.make ~id:"A1" ~title:"Ablation: the session gate is load-bearing"
    ~claim:
      "without condition (ii) of Start Phase 1, failed processes can leave \
       behind arbitrarily high sessions and each obsolete ballot costs \
       another O(delta) — the gate makes such ballots impossible (Sec. 4)"
    ~columns:[ "n"; "obsolete"; "ungated worst(d)"; "gated worst(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "the ungated variant faces session-1000k ballots (admissible \
            without the gate); the gated algorithm faces its own worst \
            admissible adversary, session-1 ballots — the gate caps \
            obsolete sessions at s0+1 (proof step 1)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A2: oracle hold-back ablation                                       *)
(* ------------------------------------------------------------------ *)

let a2 ?(speed = Quick) () =
  let n = 9 in
  let factors = [ 0.; 0.5; 1.; 2.; 4. ] in
  let rows, notes, reg =
    par_collect factors (fun obs f ->
        let tuning =
          {
            (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
            hold_back = f *. delta;
          }
        in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let sc =
                Sim.Scenario.make ~name:"a2" ~n ~ts ~delta ~seed
                  ~network:Sim.Network.silent_until_ts
                  ~horizon:(ts +. (500. *. delta))
                  ()
              in
              let proto =
                Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta
                  ~rho:0. ()
              in
              let r = Sim.Engine.run sc proto in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.1f delta" f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
        ])
  in
  Report.make ~id:"A2" ~title:"Ablation: oracle hold-back duration"
    ~claim:
      "the 2*delta hold-back is what makes oracle delivery order identical \
       at all processes after TS (Sec. 5); shorter hold-backs let delivery \
       orders diverge, costing extra rounds"
    ~columns:[ "hold-back"; "mean lat(d)"; "worst lat(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=9, silent-until-TS network; safety never depends on the \
            hold-back (agreement checked on every run), only latency does: \
            short hold-backs make processes report different values, \
            costing extra rounds until estimates coalesce"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E10: state machine replication, stable-case commit cost             *)
(* ------------------------------------------------------------------ *)

let e10 ?(speed = Quick) () =
  let n = 5 in
  ignore speed;
  let gap = 10. *. delta in
  let per_proc = 6 in
  let submitter = 1 in
  let run obs ~stable_from_start =
    let ts' = if stable_from_start then 0. else ts in
    let start = ts' +. (20. *. delta) in
    let workloads =
      Array.init n (fun p ->
          if p <> submitter then []
          else
            List.init per_proc (fun k ->
                ( start +. (gap *. float_of_int k),
                  Smr.Command.make ~id:k (Smr.Command.Add 1) )))
    in
    let cfg = Dgl.Config.make ~n ~delta () in
    let sc =
      Sim.Scenario.make ~name:"e10" ~n ~ts:ts' ~delta ~seed:seed_base
        ~network:
          (if stable_from_start then Sim.Network.deterministic_after_ts
           else Sim.Network.eventually_synchronous ())
        ~record_trace:true
        ~horizon:(start +. (float_of_int per_proc *. gap) +. (100. *. delta))
        ()
    in
    let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
    record_metrics obs r;
    (* SMR decisions are log checksums, so only the agreement half of the
       safety check applies (checksum equality = identical applied logs). *)
    (match r.Sim.Engine.agreement_violation with
    | Some _ ->
        obs.notes := "SAFETY: E10 replicated logs diverged" :: !(obs.notes)
    | None -> ());
    (* commit latency per command from trace notes *)
    let submits = Hashtbl.create 16 and chosens = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match e with
        | Sim.Trace.Note { t; text; _ } -> (
            match String.split_on_char ':' text with
            | [ "submit"; id ] -> Hashtbl.replace submits (int_of_string id) t
            | [ "chosen"; id ] ->
                let id = int_of_string id in
                if not (Hashtbl.mem chosens id) then Hashtbl.add chosens id t
            | _ -> ())
        | _ -> ())
      (Sim.Trace.entries r.Sim.Engine.trace);
    let lats =
      Sim.Sorted_tbl.fold ~compare:Int.compare
        (fun id t0 acc ->
          match Hashtbl.find_opt chosens id with
          | Some t1 -> (t1 -. t0) /. delta :: acc
          | None -> Float.infinity :: acc)
        submits []
    in
    (* Split steady-state traffic: phase-2 messages are the per-command
       cost (expect ~2n+1: forward + n 2a + n 2b); the rest is the
       epsilon gossip, the paper's "unavoidable cost of fast recovery",
       reported as a background rate. *)
    let window_lo = start
    and window_hi = start +. (float_of_int per_proc *. gap) in
    let phase2 = ref 0 and gossip = ref 0 in
    Sim.Trace.fold_window
      (fun () e ->
        match e with
        | Sim.Trace.Send { payload; _ } -> (
            match payload.Sim.Trace.kind with
            | "2a" | "2b" | "forward" -> incr phase2
            | _ -> incr gossip)
        | _ -> ())
      () r.Sim.Engine.trace ~lo:window_lo ~hi:window_hi;
    let phase2_per_cmd = float_of_int !phase2 /. float_of_int per_proc in
    let gossip_rate =
      float_of_int !gossip /. ((window_hi -. window_lo) /. delta)
    in
    (lats, phase2_per_cmd, gossip_rate)
  in
  let variants, notes, reg =
    par_collect [ true; false ] (fun obs stable_from_start ->
        run obs ~stable_from_start)
  in
  let (stable_lats, stable_p2, stable_g), (churn_lats, churn_p2, churn_g) =
    match variants with [ a; b ] -> (a, b) | _ -> assert false
  in
  let steady xs = List.filter Float.is_finite xs in
  let rows =
    [
      [
        "stable from start";
        Report.cell_f (Sim.Metrics.mean (steady stable_lats));
        Report.cell_latency (List.fold_left Float.max 0. stable_lats);
        Report.cell_f stable_p2;
        Report.cell_f stable_g;
      ];
      [
        "submits after chaos";
        Report.cell_f (Sim.Metrics.mean (steady churn_lats));
        Report.cell_latency (List.fold_left Float.max 0. churn_lats);
        Report.cell_f churn_p2;
        Report.cell_f churn_g;
      ];
    ]
  in
  Report.make ~id:"E10"
    ~title:"State machine replication: per-command commit cost"
    ~claim:
      "with phase 1 executed in advance for all instances, a stable \
       leader commits each command within 3 message delays (forward, 2a, \
       2b); the epsilon-periodic 1a gossip is the steady-state overhead \
       (Sec. 4, Reducing Message Complexity)"
    ~columns:
      [
        "scenario";
        "mean commit(d)";
        "worst commit(d)";
        "phase-2 msgs/cmd";
        "gossip msgs/delta";
      ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, 6 commands submitted to a follower 10 delta apart; commit \
            latency = submit to first replica learning the choice; expect \
            ~n^2+n+1 = 31 phase-2 messages per command (2b is broadcast so \
            every replica learns in 3 delays; relaying via the leader \
            would cost a 4th delay for O(n) messages) plus epsilon-period \
            forward retries; replica logs compared by order-sensitive \
            checksum"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A3: round jumping vs executing all rounds (original B-Consensus)    *)
(* ------------------------------------------------------------------ *)

let a3 ?(speed = Quick) () =
  ignore speed;
  let n = 5 in
  let straggler = n - 1 in
  let partition_lengths = [ 25.; 50.; 100. ] in
  let run obs ~jump ~ts' =
    let tuning =
      {
        (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
        epsilon = delta;
        jump;
      }
    in
    let network =
      Sim.Network.partitioned_until_ts [ List.init (n - 1) Fun.id ]
    in
    let proto =
      Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta ~rho:0. ()
    in
    (* probe: how many rounds did the majority group burn through? *)
    let probe =
      Sim.Engine.run
        (* stop at the heal instant: the horizon sits a hair above [ts']
           (validation requires horizon > ts), far below the minimum
           post-heal delivery delay of [0.05 * delta] *)
        (Sim.Scenario.make ~name:"a3-probe" ~n ~ts:ts' ~delta ~seed:seed_base
           ~network ~horizon:(ts' +. 1e-9) ~stop_on_all_decided:false ())
        proto
    in
    let rounds_behind =
      match probe.Sim.Engine.final_states.(0) with
      | Some st -> Bconsensus.Modified_b_consensus.round st
      | None -> -1
    in
    let r =
      Sim.Engine.run
        (Sim.Scenario.make ~name:"a3" ~n ~ts:ts' ~delta ~seed:seed_base
           ~network ~record_trace:true
           ~horizon:(ts' +. (500. *. delta))
           ())
        proto
    in
    record_metrics obs probe;
    record_metrics obs r;
    (match r.Sim.Engine.agreement_violation with
    | Some _ -> obs.notes := "SAFETY: A3 disagreement" :: !(obs.notes)
    | None -> ());
    (* retransmission volume right before the heal: messages per delta *)
    let volume =
      float_of_int
        (Sim.Trace.sends_in_window r.Sim.Engine.trace
           ~lo:(ts' -. (5. *. delta))
           ~hi:ts')
      /. 5.
    in
    ( rounds_behind,
      Measure.worst_latency r ~procs:[ straggler ] ~from_time:ts' ~delta,
      volume )
  in
  let rows, notes, reg =
    par_collect partition_lengths (fun obs len ->
        let ts' = len *. delta in
        let rounds, lat_jump, vol_jump = run obs ~jump:true ~ts' in
        let _, lat_nojump, vol_nojump = run obs ~jump:false ~ts' in
        [
          Printf.sprintf "%.0f delta" len;
          string_of_int rounds;
          Report.cell_latency lat_jump;
          Report.cell_latency lat_nojump;
          Report.cell_f vol_jump;
          Report.cell_f vol_nojump;
        ])
  in
  Report.make ~id:"A3"
    ~title:"Ablation: round jumping vs executing every round"
    ~claim:
      "as described by Pedone et al., a process must execute all previous \
       rounds, so peers must keep retransmitting every round and a \
       straggler's catch-up grows with how far behind it is; \"the \
       algorithm is easily modified to allow a process to jump \
       immediately to a later round\" (Sec. 5)"
    ~columns:
      [
        "straggler isolated for";
        "rounds behind";
        "jump: catch-up(d)";
        "no jump: catch-up(d)";
        "jump: msgs/delta";
        "no jump: msgs/delta";
      ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; one process partitioned from boot until TS while the \
            majority keeps advancing rounds; catch-up = straggler's \
            decision latency after the heal (small either way, because \
            old-round locks carry the decision); the separating cost is \
            the retransmission volume, which grows with the round count \
            without jumping and is flat with it"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E11: electing a leader is the same problem                          *)
(* ------------------------------------------------------------------ *)

let e11 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let k = n - Consensus.Quorum.majority n in
        (* the DEAD processes are the lowest ids: the ones a
           lowest-id-alive elector would trust *)
        let dead = List.init k Fun.id in
        let faults = Sim.Fault.make ~initially_down:dead [] in
        let live = Measure.procs ~n ~except:dead () in
        let tuning = Baselines.Heartbeat_omega.default_tuning ~delta in
        let run ~injections =
          let sc =
            Sim.Scenario.make ~name:"e11" ~n ~ts ~delta ~seed:seed_base
              ~network:Sim.Network.deterministic_after_ts ~faults
              ~horizon:(ts +. (1000. *. delta))
              ()
          in
          let r =
            Sim.Engine.run ~injections sc
              (Baselines.Heartbeat_omega.protocol ~tuning ~n ~delta ())
          in
          record_metrics obs r;
          (* all live processes must settle on the lowest live id *)
          List.iter
            (fun p ->
              match r.Sim.Engine.decision_values.(p) with
              | Some v when v <> k ->
                  obs.notes :=
                    Printf.sprintf
                      "SAFETY: E11 p%d settled on leader %d, expected %d" p v
                      k
                    :: !(obs.notes)
              | _ -> ())
            live;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        (* stale heartbeats of the dead low ids, spaced one trust window
           apart so each buys a full window of misplaced trust *)
        let spacing = tuning.Baselines.Heartbeat_omega.timeout -. (0.1 *. delta) in
        let injections =
          List.concat_map
            (fun i ->
              let v = List.nth dead i in
              let at = ts +. (float_of_int i *. spacing) in
              List.filter_map
                (fun dst ->
                  if List.mem dst dead then None
                  else
                    Some
                      ( at,
                        v,
                        dst,
                        Baselines.Heartbeat_omega.Heartbeat { id = v } ))
                (List.init n Fun.id))
            (List.init k Fun.id)
        in
        let clean = run ~injections:[] in
        let attacked = run ~injections in
        [
          string_of_int n;
          string_of_int k;
          Report.cell_latency clean;
          Report.cell_latency attacked;
        ])
  in
  Report.make ~id:"E11"
    ~title:"Heartbeat Omega: leader election is the same problem"
    ~claim:
      "relying on a leader elector \"simply shifts our problem to that of \
       electing a leader within O(delta) seconds of TS, in the presence \
       of obsolete messages and process restarts\" (Sec. 3): stale \
       heartbeats from dead low-id processes delay a lowest-id-alive \
       elector by one trust window each"
    ~columns:
      [ "n"; "dead low ids"; "no stale hb: settle(d)"; "stale hbs: settle(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "heartbeat period delta/2, trust window 2.5 delta; settle = all \
            live processes stably trusting the lowest live id; stale \
            heartbeats spaced one window apart cost ~2.5 delta each \
            (linear in the dead count), vs O(delta) without them"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A4: the SMR progress gate (stable leadership)                       *)
(* ------------------------------------------------------------------ *)

let a4 ?(speed = Quick) () =
  ignore speed;
  let n = 5 in
  let horizon = 3.0 in
  let run obs ~progress_gate =
    let cfg = Dgl.Config.make ~n ~delta () in
    let workloads =
      Array.init n (fun p ->
          if p <> 1 then []
          else
            List.init 5 (fun k ->
                ( 0.1 +. (20. *. delta *. float_of_int k),
                  Smr.Command.make ~id:k (Smr.Command.Add 1) )))
    in
    let sc =
      Sim.Scenario.make ~name:"a4" ~n ~ts:0. ~delta ~seed:seed_base
        ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
        ~horizon ()
    in
    let r =
      Sim.Engine.run sc (Smr.Multi_paxos.protocol ~progress_gate cfg ~workloads)
    in
    record_metrics obs r;
    (match r.Sim.Engine.agreement_violation with
    | Some _ -> obs.notes := "SAFETY: A4 log divergence" :: !(obs.notes)
    | None -> ());
    let sessions =
      match r.Sim.Engine.final_states.(0) with
      | Some st -> Smr.Multi_paxos.session_number st
      | None -> -1
    in
    let converged =
      Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values
    in
    ( sessions,
      float_of_int r.Sim.Engine.messages_sent /. (horizon /. delta),
      converged )
  in
  let variants, notes, reg =
    par_collect [ true; false ] (fun obs progress_gate ->
        run obs ~progress_gate)
  in
  let (s_on, m_on, c_on), (s_off, m_off, c_off) =
    match variants with [ a; b ] -> (a, b) | _ -> assert false
  in
  let rows =
    [
      [
        "progress gate on";
        string_of_int s_on;
        Report.cell_f m_on;
        Report.cell_bool c_on;
      ];
      [
        "progress gate off";
        string_of_int s_off;
        Report.cell_f m_off;
        Report.cell_bool c_off;
      ];
    ]
  in
  Report.make ~id:"A4" ~title:"Ablation: the SMR progress gate"
    ~claim:
      "the multi-instance variant matches \"the same behavior as normal \
       Paxos in the stable case\" (Sec. 4) only if session timeouts stand \
       down while commands are being chosen; without the gate, leadership \
       churns every ~4.5 delta forever and every churn re-runs phase 1"
    ~columns:
      [ "variant"; "sessions in 300 delta"; "msgs/delta"; "all converged" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, stable from the start, 5 commands then idle; the gate \
            freezes the session number once the system is healthy; both \
            variants stay safe and converge, and total message volume is \
            dominated by the epsilon gossip either way — what the gate \
            buys is stable leadership (no phase-1 interruptions), which \
            is what makes single-round commits the steady state"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* The headline comparison, as a chartable series                      *)
(* ------------------------------------------------------------------ *)

let headline ?(speed = Quick) () =
  List.concat
    (Measure.par_map
       (fun n ->
      let victims = Adversaries.faulty_minority ~n in
      let faults = Sim.Fault.make ~initially_down:victims [] in
      let live = Measure.procs ~n ~except:victims () in
      let lat r = Measure.worst_latency r ~procs:live ~from_time:ts ~delta in
      (* modified Paxos under its worst admissible adversary *)
      let m =
        let sc =
          Sim.Scenario.make ~name:"headline-m" ~n ~ts ~delta ~seed:seed_base
            ~network:Sim.Network.deterministic_after_ts ~faults ()
        in
        lat
          (Sim.Engine.run
             ~injections:
               (Adversaries.dgl_session1_injections ~n ~from:ts
                  ~spacing:(2. *. delta) ~victims)
             sc
             (Dgl.Modified_paxos.protocol (Dgl.Config.make ~n ~delta ())))
      in
      (* traditional Paxos under aligned obsolete ballots *)
      let t =
        let t0 =
          Adversaries.traditional_first_start ~ts ~theta:(2. *. delta)
            ~stabilize_delay:delta
        in
        let sc =
          Sim.Scenario.make ~name:"headline-t" ~n ~ts ~delta ~seed:seed_base
            ~network:Sim.Network.deterministic_after_ts ~faults ()
        in
        let oracle = Baselines.Leader_election.make ~n ~ts ~delta ~faults () in
        lat
          (Sim.Engine.run
             ~injections:
               (Adversaries.paxos_aligned_injections ~n ~delta ~t0 ~leader:0
                  ~victims)
             sc
             (Baselines.Traditional_paxos.protocol ~n ~delta ~oracle ()))
      in
      (* rotating coordinator with its first coordinators dead *)
      let rc =
        let dead = List.init (List.length victims) Fun.id in
        let faults = Sim.Fault.make ~initially_down:dead [] in
        let sc =
          Sim.Scenario.make ~name:"headline-r" ~n ~ts ~delta ~seed:seed_base
            ~network:Sim.Network.silent_until_ts ~faults ()
        in
        let r =
          Sim.Engine.run sc (Baselines.Rotating_coordinator.protocol ~n ~delta ())
        in
        Measure.worst_latency r
          ~procs:(Measure.procs ~n ~except:dead ())
          ~from_time:ts ~delta
      in
      [
        (Printf.sprintf "n=%-2d modified Paxos" n, m);
        (Printf.sprintf "n=%-2d traditional Paxos" n, t);
        (Printf.sprintf "n=%-2d rotating coord." n, rc);
      ])
       (sizes speed))

(* ------------------------------------------------------------------ *)

let table =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("a1", a1);
    ("a2", a2);
    ("a3", a3);
    ("a4", a4);
  ]

let by_id id = List.assoc_opt (String.lowercase_ascii id) table

let ids = List.map fst table

(* The whole suite is itself a sweep: experiments fan out alongside their
   own rows (nested [par_map] is deadlock-free), and results come back
   in table order. *)
let all ?(speed = Quick) () =
  Measure.par_map
    (fun ((_, f) : _ * (?speed:speed -> unit -> Report.table)) ->
      f ~speed ())
    table

(* ------------------------------------------------------------------ *)
(* Representative runs: one single execution per experiment id         *)
(* ------------------------------------------------------------------ *)

type run =
  | Run : {
      result : 'state Sim.Engine.run_result;
      validity : bool;
      timer_bounds : (float * float) option;
    }
      -> run

type representative = {
  id : string;
  label : string;
  run : record_trace:bool -> run;
}

(* Each entry receives [Sim.Scenario.make] with the shared name, delta,
   seed and tracing switch already applied, and fills in the rest. *)
let representatives =
  let entry id label run =
    {
      id;
      label;
      run =
        (fun ~record_trace ->
          run
            (Sim.Scenario.make ~name:("replay-" ^ id) ~delta ~seed:seed_base
               ~record_trace));
    }
  in
  let modified_paxos ?options ?(injections = []) cfg sc =
    Run
      {
        result =
          Sim.Engine.run ~injections sc
            (Dgl.Modified_paxos.protocol ?options cfg);
        validity = true;
        timer_bounds = Some (delta, cfg.Dgl.Config.sigma);
      }
  in
  (* [validity] is off for protocols whose decided values are not
     proposals (SMR log checksums, elected leader ids). *)
  let other ?(validity = true) ?injections sc protocol =
    Run
      {
        result = Sim.Engine.run ?injections sc protocol;
        validity;
        timer_bounds = None;
      }
  in
  let smr_workloads ~n cmds =
    Array.init n (fun p -> if p = 1 then cmds else [])
  in
  [
    entry "e1" "modified-paxos-run" (fun sc ->
        let n = 9 in
        let victims = Adversaries.faulty_minority ~n in
        modified_paxos
          ~injections:
            (Adversaries.dgl_session1_injections ~n ~from:ts
               ~spacing:(2. *. delta) ~victims)
          (Dgl.Config.make ~n ~delta ())
          (sc ~n ~ts ~network:Sim.Network.deterministic_after_ts
             ~faults:(Sim.Fault.make ~initially_down:victims [])
             ()));
    entry "e2" "traditional-paxos-run" (fun sc ->
        let n = 9 in
        let victims = Adversaries.faulty_minority ~n in
        let faults = Sim.Fault.make ~initially_down:victims [] in
        let t0 =
          Adversaries.traditional_first_start ~ts ~theta:(2. *. delta)
            ~stabilize_delay:delta
        in
        let oracle = Baselines.Leader_election.make ~n ~ts ~delta ~faults () in
        other
          ~injections:
            (Adversaries.paxos_aligned_injections ~n ~delta ~t0 ~leader:0
               ~victims)
          (sc ~n ~ts ~network:Sim.Network.deterministic_after_ts ~faults ())
          (Baselines.Traditional_paxos.protocol ~n ~delta ~oracle ()));
    entry "e3" "rotating-coordinator-run" (fun sc ->
        let n = 9 in
        let dead = List.init (Consensus.Quorum.majority n - 1) Fun.id in
        other
          (sc ~n ~ts ~network:Sim.Network.silent_until_ts
             ~faults:(Sim.Fault.make ~initially_down:dead [])
             ())
          (Baselines.Rotating_coordinator.protocol ~n ~delta ()));
    entry "e4" "restart-run" (fun sc ->
        let n = 5 in
        modified_paxos
          (Dgl.Config.make ~n ~delta ())
          (sc ~n ~ts
             ~network:(Sim.Network.eventually_synchronous ())
             ~faults:
               (Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.)
                  ~restart_at:(ts +. (20. *. delta))
                  2)
             ()));
    entry "e5" "b-consensus-run" (fun sc ->
        let n = 9 in
        let victims = Adversaries.faulty_minority ~n in
        other
          (sc ~n ~ts ~network:Sim.Network.silent_until_ts
             ~faults:(Sim.Fault.make ~initially_down:victims [])
             ())
          (Bconsensus.Modified_b_consensus.protocol ~n ~delta ~rho:0. ()));
    entry "e6" "epsilon-run" (fun sc ->
        let n = 5 in
        modified_paxos
          (Dgl.Config.make ~n ~delta ~epsilon:delta ())
          (sc ~n ~ts ~network:Sim.Network.silent_until_ts ()));
    entry "e7" "prestart-run" (fun sc ->
        let n = 5 in
        modified_paxos
          ~options:{ Dgl.Modified_paxos.default_options with prestart = true }
          (Dgl.Config.make ~n ~delta ())
          (sc ~n ~ts:0. ~network:Sim.Network.deterministic_after_ts ()));
    entry "e8" "sigma-run" (fun sc ->
        let n = 5 in
        modified_paxos
          (Dgl.Config.make ~n ~delta ~sigma:(8. *. delta) ())
          (sc ~n ~ts ~network:Sim.Network.silent_until_ts ()));
    entry "e9" "drift-run" (fun sc ->
        let n = 5 in
        modified_paxos
          (Dgl.Config.make ~n ~delta ~rho:0.05 ())
          (sc ~n ~ts ~rho:0.05 ~network:Sim.Network.silent_until_ts ()));
    entry "e10" "smr-run" (fun sc ->
        let n = 5 in
        let workloads =
          smr_workloads ~n
            (List.init 4 (fun k ->
                 ( 0.2 +. (10. *. delta *. float_of_int k),
                   Smr.Command.make ~id:k (Smr.Command.Add 1) )))
        in
        other ~validity:false
          (sc ~n ~ts:0. ~network:Sim.Network.deterministic_after_ts
             ~horizon:1.0 ())
          (Smr.Multi_paxos.protocol (Dgl.Config.make ~n ~delta ()) ~workloads));
    entry "e11" "omega-run" (fun sc ->
        let n = 9 in
        let dead = List.init (n - Consensus.Quorum.majority n) Fun.id in
        other ~validity:false
          (sc ~n ~ts ~network:Sim.Network.deterministic_after_ts
             ~faults:(Sim.Fault.make ~initially_down:dead [])
             ~horizon:(ts +. 1.0) ())
          (Baselines.Heartbeat_omega.protocol ~n ~delta ()));
    entry "a1" "ungated-run" (fun sc ->
        let n = 9 in
        let victims = Adversaries.faulty_minority ~n in
        modified_paxos
          ~options:
            { Dgl.Modified_paxos.default_options with session_gate = false }
          ~injections:
            (Adversaries.dgl_high_session_injections ~n ~from:ts
               ~spacing:(3. *. delta) ~victims)
          (Dgl.Config.make ~n ~delta ())
          (sc ~n ~ts ~network:Sim.Network.deterministic_after_ts
             ~faults:(Sim.Fault.make ~initially_down:victims [])
             ()));
    entry "a2" "holdback-run" (fun sc ->
        let n = 9 in
        let tuning =
          {
            (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
            hold_back = 0.5 *. delta;
          }
        in
        other
          (sc ~n ~ts
             ~network:(Sim.Network.eventually_synchronous ())
             ~horizon:(ts +. (500. *. delta))
             ())
          (Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta ~rho:0.
             ()));
    entry "a3" "nojump-run" (fun sc ->
        let n = 5 in
        let tuning =
          {
            (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
            epsilon = delta;
            jump = false;
          }
        in
        other
          (sc ~n ~ts:(25. *. delta)
             ~network:
               (Sim.Network.partitioned_until_ts [ List.init (n - 1) Fun.id ])
             ~horizon:((25. *. delta) +. 2.)
             ())
          (Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta ~rho:0.
             ()));
    entry "a4" "progress-gate-run" (fun sc ->
        let n = 5 in
        let workloads =
          smr_workloads ~n [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 1)) ]
        in
        other ~validity:false
          (sc ~n ~ts:0. ~network:Sim.Network.always_synchronous
             ~stop_on_all_decided:false ~horizon:1.0 ())
          (Smr.Multi_paxos.protocol ~progress_gate:false
             (Dgl.Config.make ~n ~delta ())
             ~workloads));
  ]

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)
(* ------------------------------------------------------------------ *)

type replay = {
  replay_id : string;
  scenario : Sim.Scenario.t;
  trace : Sim.Trace.t;
  metrics : Sim.Registry.t;
  proposals : int array option;
  timer_bounds : (float * float) option;
  invariants : Invariants.report;
}

let replay id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun rep -> String.equal rep.id id) representatives
  |> Option.map (fun rep ->
         match rep.run ~record_trace:true with
         | Run { result = r; validity; timer_bounds } ->
             let scenario = r.Sim.Engine.scenario in
             let proposals =
               if validity then Some scenario.Sim.Scenario.proposals else None
             in
             {
               replay_id = id;
               scenario;
               trace = r.Sim.Engine.trace;
               metrics = r.Sim.Engine.metrics;
               proposals;
               timer_bounds;
               invariants =
                 Invariants.check ?proposals ?timer_bounds r.Sim.Engine.trace;
             })
