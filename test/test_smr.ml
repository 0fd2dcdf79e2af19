(* State machine replication over the modified Paxos algorithm. *)

let delta = 0.01

let ts = 0.5

(* --- Command ------------------------------------------------------------ *)

let test_command_apply () =
  Alcotest.(check int) "set" 7
    (Smr.Command.apply 3 (Smr.Command.make ~id:0 (Smr.Command.Set 7)));
  Alcotest.(check int) "add" 5
    (Smr.Command.apply 3 (Smr.Command.make ~id:1 (Smr.Command.Add 2)));
  Alcotest.(check int) "noop" 3 (Smr.Command.apply 3 Smr.Command.noop);
  Alcotest.(check bool) "noop detection" true
    (Smr.Command.is_noop Smr.Command.noop)

let test_command_checksum_order_sensitive () =
  let a = Smr.Command.make ~id:0 (Smr.Command.Add 1) in
  let b = Smr.Command.make ~id:1 (Smr.Command.Add 2) in
  Alcotest.(check bool) "order matters" true
    (Smr.Command.checksum [ a; b ] <> Smr.Command.checksum [ b; a ]);
  Alcotest.(check bool) "deterministic" true
    (Smr.Command.checksum [ a; b ] = Smr.Command.checksum [ a; b ])

let test_command_validation () =
  Alcotest.(check bool) "negative id rejected" true
    (try
       ignore (Smr.Command.make ~id:(-2) Smr.Command.Noop);
       false
     with Invalid_argument _ -> true)

(* --- Workload helpers ----------------------------------------------------- *)

let spread_workload ~n ~per_proc ~start ~gap =
  Array.init n (fun p ->
      List.init per_proc (fun k ->
          let id = (p * per_proc) + k in
          ( start +. (gap *. float_of_int k) +. (0.001 *. float_of_int p),
            Smr.Command.make ~id (Smr.Command.Add (id + 1)) )))

let expected_sum ~n ~per_proc =
  let total = n * per_proc in
  total * (total + 1) / 2

let run ?(n = 5) ?(seed = 3L) ?(network = Sim.Network.eventually_synchronous ())
    ?(faults = Sim.Fault.none) ~workloads () =
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-test" ~n ~ts ~delta ~seed ~network ~faults
      ~horizon:(ts +. (500. *. delta))
      ()
  in
  Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads)

(* --- End-to-end ----------------------------------------------------------- *)

let test_all_replicas_converge () =
  let n = 5 and per_proc = 2 in
  let workloads = spread_workload ~n ~per_proc ~start:0.1 ~gap:0.1 in
  let r = run ~n ~workloads () in
  Alcotest.(check bool) "all decided (log checksums agree)" true
    (Sim.Engine.all_decided r);
  Array.iter
    (function
      | Some st ->
          Alcotest.(check int) "register value" (expected_sum ~n ~per_proc)
            (Smr.Multi_paxos.register st);
          Alcotest.(check int) "all commands applied" (n * per_proc)
            (List.length (Smr.Multi_paxos.applied st))
      | None -> Alcotest.fail "replica down")
    r.Sim.Engine.final_states

let test_logs_identical () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:3 ~start:0.05 ~gap:0.07 in
  let r = run ~n ~workloads () in
  let logs =
    Array.to_list r.Sim.Engine.final_states
    |> List.filter_map (Option.map Smr.Multi_paxos.applied)
  in
  match logs with
  | [] -> Alcotest.fail "no replicas"
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check bool) "same applied sequence" true
            (List.equal Smr.Command.equal first l))
        rest

let test_duplicate_submission_executes_once () =
  (* The same command id handed to two different processes: the state
     machine must apply it once. *)
  let n = 5 in
  let cmd at = (at, Smr.Command.make ~id:0 (Smr.Command.Add 100)) in
  let workloads =
    Array.init n (fun p ->
        if p = 1 then [ cmd 0.1 ] else if p = 2 then [ cmd 0.12 ] else [])
  in
  (* duplicate ids across the workload are rejected by the constructor;
     simulate a client retry by going through two processes with
     distinct ids instead, then checking idempotence of re-proposal via
     a leader change window. *)
  Alcotest.(check bool) "duplicate ids rejected up-front" true
    (try
       ignore (run ~n ~workloads ());
       false
     with Invalid_argument _ -> true)

let test_survives_minority_crash () =
  let n = 5 in
  let workloads = spread_workload ~n:3 ~per_proc:2 ~start:0.1 ~gap:0.1 in
  (* only processes 0-2 submit; 3 and 4 die before TS *)
  let workloads = Array.append workloads [| []; [] |] in
  let faults =
    Sim.Fault.make
      [ Sim.Fault.crash ~at:0.2 3; Sim.Fault.crash ~at:0.25 4 ]
  in
  let r = run ~n ~faults ~workloads () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d caught up" p)
        true
        (r.Sim.Engine.decision_values.(p) <> None))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None)

let test_restarted_replica_catches_up () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:2 ~start:0.1 ~gap:0.05 in
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:0.2
      ~restart_at:(ts +. (50. *. delta))
      2
  in
  let r = run ~n ~faults ~workloads () in
  Alcotest.(check bool) "restarted replica converges" true
    (r.Sim.Engine.decision_values.(2) <> None);
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None);
  match r.Sim.Engine.final_states.(2) with
  | Some st ->
      Alcotest.(check int) "register caught up"
        (expected_sum ~n ~per_proc:2)
        (Smr.Multi_paxos.register st)
  | None -> Alcotest.fail "replica down at end"

let test_stable_case_fast_commit () =
  (* Stable from time 0: commits within ~3 one-way delays each. *)
  let n = 5 in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init 5 (fun k ->
              ( 0.3 +. (10. *. delta *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add 1) )))
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-stable" ~n ~ts:0. ~delta ~seed:3L
      ~network:Sim.Network.deterministic_after_ts ~record_trace:true
      ~horizon:2.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  let submits = Hashtbl.create 8 and chosens = Hashtbl.create 8 in
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
  Alcotest.(check int) "all submitted" 5 (Hashtbl.length submits);
  Hashtbl.iter
    (fun id t0 ->
      match Hashtbl.find_opt chosens id with
      | None -> Alcotest.fail (Printf.sprintf "cmd%d never chosen" id)
      | Some t1 ->
          (* 3 one-way delays once leadership is settled; allow the first
             commands the cost of establishing it *)
          Alcotest.(check bool)
            (Printf.sprintf "cmd%d commit latency %.1f delta" id
               ((t1 -. t0) /. delta))
            true
            ((t1 -. t0) /. delta <= 6.))
    submits;
  (* steady state: the last command commits within 3 hops *)
  let lat id = Hashtbl.find chosens id -. Hashtbl.find submits id in
  Alcotest.(check bool) "steady-state commit within 3 delta" true
    (lat 4 /. delta <= 3.0 +. 1e-6)

let test_sessions_quiesce_when_idle () =
  (* With the progress gate, an idle stable cluster stops changing
     sessions. *)
  let n = 5 in
  let workloads =
    Array.init n (fun p ->
        if p = 0 then [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 1)) ]
        else [])
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-idle" ~n ~ts:0. ~delta ~seed:3L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:3.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  Array.iter
    (function
      | Some st ->
          (* 3 seconds = ~66 session timeouts; without the gate sessions
             would be in the dozens *)
          Alcotest.(check bool) "sessions stay low" true
            (Smr.Multi_paxos.session_number st <= 3)
      | None -> Alcotest.fail "replica down")
    r.Sim.Engine.final_states

let test_leader_crash_mid_commit () =
  (* Crash whoever leads while commands are in flight: orphaned
     proposals must go back to pending, reach the next leader, and
     execute exactly once.  We crash a different process in each run so
     that whichever process happens to lead, some run kills it. *)
  let n = 5 in
  List.iter
    (fun victim ->
      let workloads = spread_workload ~n ~per_proc:1 ~start:(ts /. 4.) ~gap:0.01 in
      let faults =
        Sim.Fault.crash_then_restart
          ~crash_at:(ts /. 2.)
          ~restart_at:(ts +. (40. *. delta))
          victim
      in
      let r = run ~n ~faults ~network:Sim.Network.silent_until_ts ~workloads () in
      Alcotest.(check bool)
        (Printf.sprintf "no divergence (victim %d)" victim)
        true
        (r.Sim.Engine.agreement_violation = None);
      Array.iteri
        (fun p st ->
          match st with
          | Some st ->
              Alcotest.(check int)
                (Printf.sprintf "p%d register (victim %d)" p victim)
                (expected_sum ~n ~per_proc:1)
                (Smr.Multi_paxos.register st)
          | None -> Alcotest.fail "replica down at end")
        r.Sim.Engine.final_states)
    [ 0; 2; 4 ]

let test_ungated_sessions_churn_but_converge () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:1 ~start:0.05 ~gap:0.05 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-ungated" ~n ~ts:0. ~delta ~seed:5L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:2.0 ()
  in
  let r =
    Sim.Engine.run sc
      (Smr.Multi_paxos.protocol ~progress_gate:false cfg ~workloads)
  in
  Alcotest.(check bool) "still converges" true
    (Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values);
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None);
  match r.Sim.Engine.final_states.(0) with
  | Some st ->
      Alcotest.(check bool) "sessions churned" true
        (Smr.Multi_paxos.session_number st > 10)
  | None -> Alcotest.fail "down"

let test_workload_validation () =
  let cfg = Dgl.Config.make ~n:3 ~delta () in
  let dup =
    [|
      [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 1)) ];
      [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 2)) ];
      [];
    |]
  in
  Alcotest.(check bool) "duplicate ids rejected" true
    (try
       ignore (Smr.Multi_paxos.protocol cfg ~workloads:dup);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (Smr.Multi_paxos.protocol cfg ~workloads:[| [] |]);
       false
     with Invalid_argument _ -> true)

let test_empty_workload_quiet () =
  let n = 3 in
  let workloads = Array.make n [] in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-empty" ~n ~ts:0. ~delta ~seed:1L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:1.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  Array.iter
    (function
      | Some st ->
          Alcotest.(check int) "nothing chosen" 0 (Smr.Multi_paxos.chosen_upto st)
      | None -> Alcotest.fail "down")
    r.Sim.Engine.final_states

(* Property: under random workloads, networks and pre-TS crash/restart
   churn, every replica applies the same command sequence and reaches
   the same register value. *)
let prop_logs_converge =
  let gen =
    QCheck.Gen.(
      let* seed = map Int64.of_int (int_range 1 1_000_000) in
      let* n_cmds = int_range 1 8 in
      let* submitters = list_repeat n_cmds (int_range 0 4) in
      let* ops =
        list_repeat n_cmds
          (oneof [ map (fun v -> Smr.Command.Set v) (int_bound 100);
                   map (fun d -> Smr.Command.Add d) (int_bound 20) ])
      in
      let* net = int_bound 1 in
      let* churn = opt (pair (int_bound 4) (float_range 0.1 0.4)) in
      return (seed, submitters, ops, net, churn))
  in
  let print (seed, submitters, _, net, churn) =
    Printf.sprintf "{seed=%Ld; submitters=%s; net=%d; churn=%s}" seed
      (String.concat "," (List.map string_of_int submitters))
      net
      (match churn with
      | Some (p, t) -> Printf.sprintf "p%d@%.2f" p t
      | None -> "-")
  in
  QCheck.Test.make ~name:"smr: replica logs converge" ~count:40
    (QCheck.make ~print gen)
    (fun (seed, submitters, ops, net, churn) ->
      let n = 5 in
      let cmds = List.combine submitters ops in
      (* assign globally unique ids in submission order *)
      let counter = ref 0 in
      let workloads =
        Array.init n (fun p ->
            List.filter_map
              (fun (q, op) ->
                if q <> p then None
                else begin
                  let id = !counter in
                  incr counter;
                  Some
                    ( 0.05 +. (0.03 *. float_of_int id),
                      Smr.Command.make ~id op )
                end)
              cmds)
      in
      let network =
        if net = 0 then Sim.Network.eventually_synchronous ()
        else Sim.Network.silent_until_ts
      in
      let faults =
        match churn with
        | Some (p, t) ->
            Sim.Fault.crash_then_restart ~crash_at:t ~restart_at:(ts +. 0.1) p
        | None -> Sim.Fault.none
      in
      let cfg = Dgl.Config.make ~n ~delta () in
      let sc =
        Sim.Scenario.make ~name:"smr-prop" ~n ~ts ~delta ~seed ~network
          ~faults
          ~horizon:(ts +. (500. *. delta))
          ()
      in
      let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
      (* all replicas decided the same checksum, and applied everything *)
      (match r.Sim.Engine.agreement_violation with
      | Some _ -> QCheck.Test.fail_report "log checksums diverged"
      | None -> ());
      Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values
      ||
      QCheck.Test.fail_report "a replica failed to converge by the horizon")

(* --- Hand-driven cluster ---------------------------------------------------- *)

(* Handlers run straight off one FIFO queue, with no clock and no timers
   unless the test fires them: exact, fast, and able to reach log depths
   an engine run would take minutes to. *)
module Mp = Smr.Multi_paxos
module Imap = Map.Make (Int)

let capture_ctx ~n self outbox timers :
    (Smr.Smr_messages.t, Mp.state) Sim.Runtime.ctx =
  {
    Sim.Runtime.self;
    n;
    proposal = 0;
    local_time = (fun () -> 0.);
    send = (fun ~dst m -> Queue.add (self, dst, m) outbox);
    broadcast =
      (fun m ->
        for dst = 0 to n - 1 do
          Queue.add (self, dst, m) outbox
        done);
    set_timer = (fun ~local_delay:_ ~tag -> timers := tag :: !timers);
    persist = ignore;
    decide = ignore;
    has_decided = (fun () -> false);
    rng = Sim.Prng.create (Int64.of_int self);
    scratch = Sim.Scratch.create ();
    note = ignore;
    count = ignore;
    oracle_time = (fun () -> 0.);
  }

(* Regression: 2b tallies used to accumulate for every instance ever
   chosen.  Drive 10^4 instances through a stable leader, 16 in flight
   at a time, and check no replica ever holds more tallies than that. *)
let test_tallies_stay_in_flight () =
  let n = 3 and in_flight = 16 and total = 10_000 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let proto = Mp.protocol ~progress_gate:false cfg ~workloads:(Array.make n []) in
  let outbox = Queue.create () in
  let ctxs = Array.init n (fun p -> capture_ctx ~n p outbox (ref [])) in
  let st = Array.map proto.Sim.Runtime.on_boot ctxs in
  let most = ref 0 in
  let pump () =
    while not (Queue.is_empty outbox) do
      let src, dst, m = Queue.pop outbox in
      st.(dst) <- proto.Sim.Runtime.on_message ctxs.(dst) st.(dst) ~src m;
      most := max !most (Mp.tally_count st.(dst))
    done
  in
  (* replica 0's session timer opens phase 1; the 1b's make it lead *)
  st.(0) <- proto.Sim.Runtime.on_timer ctxs.(0) st.(0) ~tag:0;
  pump ();
  Alcotest.(check bool) "replica 0 leads" true (Mp.leading st.(0));
  let id = ref 0 in
  while !id < total do
    for _ = 1 to in_flight do
      let cmd = Smr.Command.make ~id:!id (Smr.Command.Set !id) in
      st.(0) <-
        proto.Sim.Runtime.on_message ctxs.(0) st.(0) ~src:1
          (Smr.Smr_messages.Forward { cmd });
      incr id
    done;
    pump ()
  done;
  Array.iter
    (fun s ->
      Alcotest.(check int) "every instance chosen" total (Mp.chosen_upto s);
      Alcotest.(check int) "no tallies left" 0 (Mp.tally_count s))
    st;
  Alcotest.(check bool)
    (Printf.sprintf "at most %d tallies at once (saw %d)" in_flight !most)
    true (!most <= in_flight)

(* Property: the 1b answering a 1a, and the session timer's stand-down
   decision, are those of the whole-map folds they replaced, on states
   with a chosen prefix of up to 10^4 instances plus random chosen
   entries, votes and proposals above it. *)
let prop_periodic_paths_match_whole_map_folds =
  let n = 3 in
  let cmd i = Smr.Command.make ~id:i (Smr.Command.Set i) in
  let gen =
    QCheck.Gen.(
      let* prefix = oneof [ int_bound 20; int_bound 10_000 ] in
      let above = int_range 0 (prefix + 64) in
      let* chosen_extra = list_size (int_bound 12) above in
      let* votes = list_size (int_bound 12) (pair above (int_range 0 40)) in
      let* proposed = list_size (int_bound 24) above in
      let* pending = int_bound 2 in
      let* session = int_bound 3 in
      let* mark_back = int_bound 2 in
      return
        (prefix, chosen_extra, votes, proposed, pending, session, mark_back))
  in
  let print (prefix, chosen_extra, votes, proposed, pending, session, back) =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf
      "{prefix=%d; chosen=[%s]; votes=[%s]; proposed=[%s]; pending=%d; \
       session=%d; mark_back=%d}"
      prefix (ints chosen_extra)
      (ints (List.map fst votes))
      (ints proposed) pending session back
  in
  QCheck.Test.make ~name:"smr: 1b and session timer match whole-map folds"
    ~count:200 (QCheck.make ~print gen)
    (fun (prefix, chosen_extra, votes, proposed, pending, session, back) ->
      let chosen =
        List.fold_left
          (fun m i -> Imap.add i (cmd i) m)
          (Imap.of_seq (Seq.init prefix (fun i -> (i, cmd i))))
          chosen_extra
      in
      let ivotes =
        List.fold_left
          (fun m (i, vbal) ->
            if Imap.mem i chosen then m
            else
              Imap.add i
                { Smr.Smr_messages.vbal; vcmd = cmd (1_000_000 + i) }
                m)
          Imap.empty votes
      in
      let proposed = List.map (fun i -> (i, cmd (2_000_000 + i))) proposed in
      let pending = List.init pending (fun k -> cmd (3_000_000 + k)) in
      let rec advance u = if Imap.mem u chosen then advance (u + 1) else u in
      let upto = advance 0 in
      let progress_mark = max 0 (upto - back) in
      let chosen_vote c = { Smr.Smr_messages.vbal = max_int; vcmd = c } in
      let outbox = Queue.create () and timers = ref [] in
      let ctx = capture_ctx ~n 0 outbox timers in
      let cfg = Dgl.Config.make ~n ~delta () in
      let st =
        Mp.restore cfg ctx
          {
            Mp.e_mbal = Consensus.Ballot.of_session ~n ~proc:0 session;
            e_votes =
              Imap.bindings ivotes
              @ List.map (fun (i, c) -> (i, chosen_vote c)) (Imap.bindings chosen);
            e_chosen_upto = 0;
          }
      in
      let st = Mp.Private.with_inflight st ~proposed ~pending ~progress_mark in
      let proto = Mp.protocol cfg ~workloads:(Array.make n []) in
      (* the 1b, against the old fold over the whole chosen map *)
      let expect_votes =
        Imap.fold
          (fun i v acc -> (i, v) :: acc)
          ivotes
          (Imap.fold
             (fun i c acc -> if i >= upto then (i, chosen_vote c) :: acc else acc)
             chosen [])
      in
      Queue.clear outbox;
      let mbal = Mp.mbal st in
      ignore (proto.Sim.Runtime.on_message ctx st ~src:1
                (Smr.Smr_messages.M1a { mbal }) : Mp.state);
      let sent_1b =
        Queue.fold
          (fun acc (_, _, m) ->
            match m with
            | Smr.Smr_messages.M1b { mbal = b; votes; chosen_upto } ->
                Some (b, votes, chosen_upto)
            | _ -> acc)
          None outbox
      in
      if sent_1b <> Some (mbal, expect_votes, upto) then
        QCheck.Test.fail_report "1b differs from the whole-map fold";
      (* the session timer, against the old whole-map scans *)
      let work_outstanding =
        pending <> []
        || Imap.exists (fun i _ -> not (Imap.mem i chosen)) ivotes
        || List.exists (fun (i, _) -> not (Imap.mem i chosen)) proposed
      in
      let expect_stand_down = not (work_outstanding && upto <= progress_mark) in
      timers := [];
      let tag = Mp.session_number st in
      ignore (proto.Sim.Runtime.on_timer ctx st ~tag : Mp.state);
      List.mem tag !timers = expect_stand_down
      || QCheck.Test.fail_report "session timer decided differently")

let suite =
  [
    Alcotest.test_case "command apply" `Quick test_command_apply;
    Alcotest.test_case "checksum order sensitive" `Quick
      test_command_checksum_order_sensitive;
    Alcotest.test_case "command validation" `Quick test_command_validation;
    Alcotest.test_case "replicas converge" `Quick test_all_replicas_converge;
    Alcotest.test_case "logs identical" `Quick test_logs_identical;
    Alcotest.test_case "duplicate ids rejected" `Quick
      test_duplicate_submission_executes_once;
    Alcotest.test_case "survives minority crash" `Quick
      test_survives_minority_crash;
    Alcotest.test_case "restarted replica catches up" `Quick
      test_restarted_replica_catches_up;
    Alcotest.test_case "stable case: fast commits" `Quick
      test_stable_case_fast_commit;
    Alcotest.test_case "sessions quiesce when idle" `Quick
      test_sessions_quiesce_when_idle;
    Alcotest.test_case "leader crash mid-commit" `Quick
      test_leader_crash_mid_commit;
    Alcotest.test_case "ungated sessions churn but converge" `Quick
      test_ungated_sessions_churn_but_converge;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "empty workload stays quiet" `Quick
      test_empty_workload_quiet;
    QCheck_alcotest.to_alcotest prop_logs_converge;
    Alcotest.test_case "2b tallies stay at the in-flight size" `Quick
      test_tallies_stay_in_flight;
    QCheck_alcotest.to_alcotest prop_periodic_paths_match_whole_map_folds;
  ]
