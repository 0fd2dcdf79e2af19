(* The live workloads: kv-ramp and kv-failover on real replica
   processes over loopback TCP.  No delay is injected between nodes;
   delta (20 ms) is only the protocol's timer parameter. *)

module Wire = Smr.Wire
module Command = Smr.Command

type env = {
  exe : string;
  dir : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans : Spans.t;
}

let now = Spans.now_ns
let ns_of_s s = int_of_float (s *. 1e9)
let ms_between a b = float_of_int (b - a) /. 1e6

(* phase lengths are written for a 20 s run and scale with --seconds *)
let scaled env s = s *. env.seconds /. 20.

let value_bytes = 16

let pct sorted q =
  match Stats.percentile sorted q with
  | Some v when Float.is_finite v -> Some (v *. 1e3)
  | Some _ | None -> None

(* ---- set-up ---------------------------------------------------------- *)

(* Spawn [n] replicas and wait for the first committed reply.  Set-up
   is the CPU time spent until then by the replicas and this process:
   its wall time, about 16 ms, moved by a fifth with the host's steal. *)
let bring_up env ~n =
  let t0 = now () and self0 = Procfs.self_cpu_s () in
  let c = Cluster.create ~exe:env.exe ~dir:env.dir ~seed:env.seed ~n in
  match
    Cluster.request ~port:(Cluster.ports c).(0)
      ~deadline:(t0 + ns_of_s 15.)
      (Command.Kv_put { key = "setup"; value = "1" })
  with
  | Some Wire.R_stored ->
      let replicas =
        List.fold_left
          (fun acc i ->
            acc +. Option.value ~default:0. (Procfs.run_s (Cluster.pid c i)))
          0.
          (List.init n Fun.id)
      in
      (c, replicas +. Procfs.self_cpu_s () -. self0)
  | Some _ | None ->
      Cluster.stop c;
      failwith "cluster never committed its first request"

(* Set up five times, keep the last cluster; set-up time is the median. *)
let set_up env ~n =
  let rec go k acc =
    let c, s = bring_up env ~n in
    if k = 1 then (c, Stats.median (Array.of_list (s :: acc)))
    else begin
      Cluster.stop c;
      go (k - 1) (s :: acc)
    end
  in
  go 5 []

let wait_leader c =
  let deadline = now () + ns_of_s 5. in
  let rec poll () =
    match Cluster.leader c with
    | Some l -> l
    | None when now () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | None -> failwith "no replica leads"
  in
  poll ()

let cpu c i = if Cluster.alive c i then Procfs.cpu_s (Cluster.pid c i) else None

let cpu_all c = Array.init (Cluster.size c) (cpu c)

(* CPU seconds spent by replica [i] between two snapshots taken while
   the same process ran *)
let cpu_delta a b i =
  match (a.(i), b.(i)) with Some x, Some y -> Some (y -. x) | _ -> None

(* mean replica CPU % over a quiet window right after set-up *)
let idle_cpu_pct c =
  Unix.sleepf 0.2;
  let a = cpu_all c in
  let w = 2.0 in
  Unix.sleepf w;
  let b = cpu_all c in
  let xs =
    List.filter_map (cpu_delta a b) (List.init (Cluster.size c) Fun.id)
  in
  if xs = [] then 0.
  else 100. *. List.fold_left ( +. ) 0. xs /. w /. float_of_int (List.length xs)

(* Leader transitions seen by polling the is_leading probe. *)
type observer = {
  mutable last : int option;
  mutable changes : int;
  mutable stop : bool;
}

(* A replica whose resident set passes this is killed with the rest of
   the cluster, ending the run, so a runaway replica cannot exhaust the
   host's memory. *)
let rss_limit_mb = 1024.

(* Check every 100 ms until [f] returns; then stop checking. *)
let with_rss_guard c f =
  let stop = ref false in
  let guard () =
    while not !stop do
      for i = 0 to Cluster.size c - 1 do
        if Cluster.alive c i then
          match Procfs.rss_mb (Cluster.pid c i) with
          | Some mb when mb > rss_limit_mb ->
              Printf.eprintf "perfbench: replica %d holds %.0f MB; stopping\n%!"
                i mb;
              Cluster.note_peak c i;
              Cluster.kill_all_children ()
          | Some _ | None -> ()
      done;
      Unix.sleepf 0.1
    done
  in
  let th = Thread.create guard () in
  Fun.protect
    ~finally:(fun () ->
      stop := true;
      Thread.join th)
    f

let observe c o =
  match Cluster.leader c with
  | Some l ->
      (match o.last with
      | Some p when p <> l -> o.changes <- o.changes + 1
      | Some _ | None -> ());
      o.last <- Some l
  | None -> ()

(* Sleep until [deadline], polling the leader every 100 ms. *)
let watch_until c o deadline =
  let rec loop () =
    let at = now () in
    if at < deadline then begin
      observe c o;
      Unix.sleepf (Float.min 0.1 (float_of_int (deadline - at) /. 1e9));
      loop ()
    end
  in
  loop ()

(* Wait until every live replica holds the same chosen prefix, then
   compare their KV checksums. *)
let checksums_agree c =
  let live = List.filter (Cluster.alive c) (List.init (Cluster.size c) Fun.id) in
  let deadline = now () + ns_of_s 10. in
  let rec settle prev =
    let chosen = List.map (fun i -> Cluster.probe_int c i "chosen") live in
    let same =
      match chosen with
      | Some x :: rest -> List.for_all (fun y -> y = Some x) rest
      | _ -> false
    in
    if same && prev = Some chosen then ()
    else if now () < deadline then begin
      Unix.sleepf 0.05;
      settle (if same then Some chosen else None)
    end
  in
  settle None;
  match List.map (fun i -> Cluster.probe_int c i "checksum") live with
  | Some x :: rest -> List.for_all (fun y -> y = Some x) rest
  | _ -> false

let counter c i name =
  Option.value ~default:0
    (Cluster.probe_int c i ("counter " ^ name))

let sum_counter c name =
  List.fold_left
    (fun acc i -> if Cluster.alive c i then acc + counter c i name else acc)
    0
    (List.init (Cluster.size c) Fun.id)

let netio_layer c =
  List.map
    (fun name -> ("netio." ^ name, float_of_int (sum_counter c ("netio_" ^ name))))
    [ "partial_timeouts"; "input_overflows"; "accept_backoffs" ]

let rss_split c ~leader =
  let followers =
    List.filter (fun i -> i <> leader) (List.init (Cluster.size c) Fun.id)
  in
  let peak i = (c.Cluster.members.(i)).Cluster.peak_mb in
  ( peak leader,
    List.fold_left (fun acc i -> Float.max acc (peak i)) 0. followers )

(* the generators' counts, summed over the rounds *)
let generator_layer (gens : Gen.t list) =
  let sum f = float_of_int (List.fold_left (fun a g -> a + f g) 0 gens) in
  [
    ("gen.sent", sum (fun g -> g.Gen.sent));
    ("gen.completed", sum (fun g -> g.Gen.completed));
    ("gen.failed", sum (fun g -> g.Gen.failed));
    ("gen.refused", sum (fun g -> g.Gen.refused));
    ("gen.resent", sum (fun g -> g.Gen.resent));
    ("gen.reconnects", sum (fun g -> g.Gen.reconnects));
    ("gen.late", sum (fun g -> g.Gen.late));
    ( "gen.inflight.max",
      float_of_int
        (List.fold_left (fun a g -> Stdlib.max a g.Gen.inflight_max) 0 gens) );
  ]

let span_p50_us spans name =
  let d = Stats.sorted (Spans.durations spans (Spans.kind spans name)) in
  if Array.length d = 0 then 0. else Stats.median d /. 1e3

let wire_layer spans =
  [
    ("wire.encode_us", span_p50_us spans "wire.encode");
    ("wire.decode_us", span_p50_us spans "wire.decode");
    ("sock.write_us", span_p50_us spans "sock.write");
  ]

(* Closed-loop capacity at pipeline 256 over a fixed command count, run
   in five segments whose rates go to stderr. *)
let closed_capacity env g ~step ~op =
  let per_segment = int_of_float (scaled env 12_000.) in
  let times =
    Array.init 5 (fun _ ->
        Gen.closed_loop g ~count:per_segment ~pipeline:256 ~step ~op
          ~deadline:(now () + ns_of_s 20.))
  in
  Printf.eprintf "closed loop, pipeline 256: %s cmd/s\n%!"
    (String.concat " "
       (Array.to_list
          (Array.map (fun t -> Printf.sprintf "%.0f" (float_of_int per_segment /. t)) times)));
  float_of_int (5 * per_segment) /. Array.fold_left ( +. ) 0. times

(* ---- kv-ramp ---------------------------------------------------------- *)

let mixed_op rng rid =
  let key = "k" ^ string_of_int (Sim.Prng.int rng 1024) in
  let value = Printf.sprintf "%0*d" value_bytes (rid land 0xffffff) in
  let roll = Sim.Prng.int rng 10 in
  if roll < 7 then Command.Kv_put { key; value }
  else if roll < 9 then Command.Kv_get key
  else Command.Kv_cas { key; expect = None; set = value }

let mixed_reply_ok (req : Gen.req) reply =
  match (req.Gen.op, reply) with
  | Command.Kv_put _, Wire.R_stored
  | Command.Kv_get _, Wire.R_value _
  | Command.Kv_cas _, Wire.R_cas _ ->
      true
  | _, _ -> false

(* The open-loop steps of one round, (name, rate, seconds), ascending on
   one cluster.  The rates stop at 10k: a 30k step saturated the cluster
   on a 2-vCPU host and sometimes stalled it for seconds (README). *)
let ramp_steps = [ ("2k", 2_000., 1.5); ("10k", 10_000., 1.5) ]

(* step ids after the open-loop steps: the closed loop, the warm-up *)
let closed_step = List.length ramp_steps
let warm_step = closed_step + 1

(* closed-loop segments per round, and commands per segment; the
   throughput is the median over every segment of the run *)
let closed_segments = 6
let closed_count = 8_000

(* p50 at 2k on a single-replica cluster: the replication baseline *)
let single_node_p50 env =
  let c, _ = bring_up env ~n:1 in
  Fun.protect
    ~finally:(fun () -> Cluster.stop c)
    (fun () ->
      let g =
        Gen.create ~spans:(Spans.create ~enabled:false) ~ports:(Cluster.ports c)
          ~member:0 ~check:mixed_reply_ok ()
      in
      let rng = Sim.Prng.create (Int64.of_int (env.seed + 1)) in
      Gen.open_loop g ~rng ~rate:2_000. ~duration_ns:(ns_of_s 3.) ~step:0
        ~op:(mixed_op rng);
      Gen.drain g ~deadline:(now () + ns_of_s 3.);
      Gen.close g;
      Option.value ~default:0. (pct (Gen.latencies g ~step:0) 0.5))

(* replay the run's command stream through the KV state machine *)
let kv_apply_us ops =
  let kv = Smr.Kv_state.create () in
  let n = List.length ops in
  let t0 = now () in
  List.iteri
    (fun i op -> ignore (Smr.Kv_state.apply kv (Command.make ~id:i op) : _ list))
    ops;
  if n = 0 then 0. else float_of_int (now () - t0) /. 1e3 /. float_of_int n

type round = {
  values : (string * float) list;  (* this round's named measurements *)
  rates : float array;  (* closed-loop segments, cmd/s *)
  gen : Gen.t;
  agree : bool;
  leader_changes : int;
  idle : float option;
}

(* One round on a fresh cluster: set-up, a short warm-up, the open-loop
   steps, then the closed loop; request numbers start at [rid_base], so
   the spans of different rounds never share an id. *)
let ramp_round env ~rng ~first ~rid_base =
  let h0 = Procfs.host_cpu () in
  let c, setup_s = bring_up env ~n:3 in
  let r =
    with_rss_guard c @@ fun () ->
    let idle = if env.trace && first then Some (idle_cpu_pct c) else None in
    let leader = wait_leader c in
    let member = (leader + 1) mod 3 in
    let g =
      Gen.create ~record_ops:env.trace ~spans:env.spans ~ports:(Cluster.ports c)
        ~member ~check:mixed_reply_ok ()
    in
    g.Gen.next_rid <- rid_base;
    let o = { last = Some leader; changes = 0; stop = false } in
    let watcher =
      if env.trace then
        Some
          (Thread.create
             (fun () ->
               while not o.stop do
                 watch_until c o (now () + ns_of_s 0.1)
               done)
             ())
      else None
    in
    Gen.open_loop g ~rng ~rate:2_000. ~duration_ns:(ns_of_s 0.3) ~step:warm_step
      ~op:(mixed_op rng);
    Gen.drain g ~deadline:(now () + ns_of_s 5.);
    let warm_completed = g.Gen.completed in
    let cpd_at () =
      (counter c member "serve_committed", counter c member "serve_decrees")
    in
    let cpd (c0, d0) (c1, d1) =
      if d1 > d0 then float_of_int (c1 - c0) /. float_of_int (d1 - d0) else 0.
    in
    let cpu0 = cpu_all c in
    let steps =
      List.concat
        (List.mapi
           (fun step (name, rate, secs) ->
             let before = cpd_at () in
             Gen.open_loop g ~rng ~rate ~duration_ns:(ns_of_s secs) ~step
               ~op:(mixed_op rng);
             Gen.drain g ~deadline:(now () + ns_of_s 5.);
             let lat = Gen.latencies g ~step in
             let get q = Option.value ~default:Float.infinity (pct lat q) in
             [
               ("gen.p50_ms." ^ name, get 0.5);
               ("gen.p99_ms." ^ name, get 0.99);
               ( "gen.lag_ms.p99." ^ name,
                 Option.value ~default:0.
                   (Stats.percentile (Gen.lags_ms g ~step) 0.99) );
               ("replica.cmds_per_decree." ^ name, cpd before (cpd_at ()));
               ( "paxos.decrees." ^ name,
                 float_of_int (counter c member "serve_decrees") );
             ])
           ramp_steps)
    in
    let before_closed = cpd_at () in
    let rates =
      Array.init closed_segments (fun _ ->
          let secs =
            Gen.closed_loop g ~count:closed_count ~pipeline:256 ~step:closed_step
              ~op:(mixed_op rng) ~deadline:(now () + ns_of_s 20.)
          in
          float_of_int closed_count /. secs)
    in
    let cpd_closed = cpd before_closed (cpd_at ()) in
    let closed_p50 =
      Option.value ~default:Float.infinity
        (pct (Gen.latencies g ~step:closed_step) 0.5)
    in
    let cpu1 = cpu_all c in
    Gen.close g;
    o.stop <- true;
    Option.iter Thread.join watcher;
    let agree = checksums_agree c in
    let final_leader = Option.value ~default:leader (Cluster.leader c) in
    let decrees = Option.value ~default:0 (Cluster.probe_int c leader "chosen") in
    let netio = netio_layer c in
    let snapshot_mb = Cluster.snapshot_mb c in
    let cmds = float_of_int (g.Gen.completed - warm_completed) in
    let cpu_per_cmd i =
      match cpu_delta cpu0 cpu1 i with
      | Some s when cmds > 0. -> s *. 1e6 /. cmds
      | Some _ | None -> 0.
    in
    let followers = List.filter (fun i -> i <> leader) [ 0; 1; 2 ] in
    let values =
      steps @ netio
      @ [
          ("capacity_cmd_s", Stats.median rates);
          ("gen.p50_ms.closed", closed_p50);
          ( "replica.cpu_us_per_cmd",
            List.fold_left (fun a i -> a +. cpu_per_cmd i) 0. [ 0; 1; 2 ] );
          ("replica.cmds_per_decree.closed", cpd_closed);
          ("replica.cpu_us_per_cmd.leader", cpu_per_cmd leader);
          ( "replica.cpu_us_per_cmd.follower",
            List.fold_left (fun a i -> a +. cpu_per_cmd i) 0. followers /. 2. );
          ("replica.snapshot_mb", snapshot_mb);
          ("paxos.decrees", float_of_int decrees);
        ]
    in
    (values, rates, g, agree, o.changes, idle, final_leader)
  in
  Cluster.stop c;
  let values, rates, gen, agree, leader_changes, idle, final_leader = r in
  let rss_leader, rss_follower = rss_split c ~leader:final_leader in
  let v name = List.assoc name values in
  Printf.eprintf
    "kv-ramp round: set-up %.1f ms; p50/p99 %.2f/%.1f ms at 2k, %.2f/%.1f ms \
     at 10k; closed loop %.0f cmd/s, p50 %.2f ms; %.1f us CPU/cmd; steal \
     %.1f%%\n%!"
    (setup_s *. 1e3) (v "gen.p50_ms.2k") (v "gen.p99_ms.2k") (v "gen.p50_ms.10k")
    (v "gen.p99_ms.10k") (v "capacity_cmd_s") (v "gen.p50_ms.closed")
    (v "replica.cpu_us_per_cmd")
    (Procfs.steal_pct h0 (Procfs.host_cpu ()));
  {
    values =
      ("setup_s", setup_s)
      :: ("rss_mb", Float.max rss_leader rss_follower)
      :: ("replica.rss_mb.leader", rss_leader)
      :: ("replica.rss_mb.follower", rss_follower)
      :: values;
    rates;
    gen;
    agree;
    leader_changes;
    idle;
  }

(* the median of every named value over the rounds *)
let medians = function
  | [] -> []
  | first :: _ as rounds ->
      List.map
        (fun (name, _) ->
          ( name,
            Stats.median
              (Array.of_list (List.filter_map (List.assoc_opt name) rounds)) ))
        first

(* Rounds on fresh clusters until the run's time is spent, at least
   three; every measurement is the median over the rounds. *)
let kv_ramp env =
  let steal0 = Procfs.host_cpu () in
  let t0 = now () in
  let rng = Sim.Prng.create (Int64.of_int env.seed) in
  let rec go acc k rid_base =
    let t_round = now () in
    let r = ramp_round env ~rng ~first:(k = 0) ~rid_base in
    let acc = r :: acc in
    let elapsed = now () - t0 and len = now () - t_round in
    if k + 1 < 3 || elapsed + len <= ns_of_s env.seconds then
      go acc (k + 1) r.gen.Gen.next_rid
    else List.rev acc
  in
  let rounds = go [] 0 0 in
  let steal = Procfs.steal_pct steal0 (Procfs.host_cpu ()) in
  let m = medians (List.map (fun r -> r.values) rounds) in
  let gens = List.map (fun r -> r.gen) rounds in
  let trace_layers =
    if env.trace then
      [
        ( "replica.idle_cpu_pct",
          Option.value ~default:0. (List.hd rounds).idle );
        ( "paxos.leader_changes",
          float_of_int
            (List.fold_left (fun a r -> a + r.leader_changes) 0 rounds) );
        ( "paxos.replication_ms.2k",
          List.assoc "gen.p50_ms.2k" m -. single_node_p50 env );
        ( "kv.apply_us",
          kv_apply_us (List.concat_map (fun g -> List.rev g.Gen.ops) gens) );
      ]
    else []
  in
  let e2e =
    [
      ("setup_s", List.assoc "setup_s" m);
      ("rss_mb", List.assoc "rss_mb" m);
      ("cpu_us_per_op", List.assoc "replica.cpu_us_per_cmd" m);
    ]
  in
  let layer =
    m @ trace_layers
    @ [
        ("wall.time_ms", List.assoc "gen.p50_ms.closed" m);
        ( "wall.throughput_per_s",
          Stats.median (Array.concat (List.map (fun r -> r.rates) rounds)) );
      ]
    @ generator_layer gens
    @ wire_layer env.spans
    @ [
        ("ramp.rounds", float_of_int (List.length rounds));
        ("host.steal_pct", steal);
      ]
  in
  let failed = List.fold_left (fun a g -> a + g.Gen.failed) 0 gens in
  let checks =
    [
      ("every request answered without error", failed = 0);
      ("replica checksums agree in every round", List.for_all (fun r -> r.agree) rounds);
    ]
  in
  {
    Outcome.attempted =
      List.fold_left (fun a g -> a + g.Gen.sent) 0 gens + List.length checks;
    failed = failed + List.length (List.filter (fun (_, ok) -> not ok) checks);
    checks;
    e2e;
    layer;
  }

(* ---- kv-failover ------------------------------------------------------ *)

type cycle = {
  kill_ns : int;
  restore_ms : float;
  catchup_ms : float;
  read_ok : bool;
}

let unique_op rid =
  Command.Kv_put
    {
      key = "u" ^ string_of_int rid;
      value = Chaos.Campaign.expected_value ~value_bytes rid;
    }

let stored_ok _ reply = match reply with Wire.R_stored -> true | _ -> false

(* Kill the leader, restart it from its snapshot after [restart_delay],
   and time until it serves a read (the kv_get probe) of a key committed
   while it was down: first until it accepts connections, then until the
   read returns the written value. *)
let failover_cycle c g o ~restart_delay =
  match Cluster.leader c with
  | None -> None
  | Some victim ->
      let kill_ns = now () in
      Cluster.kill c victim;
      watch_until c o (kill_ns + ns_of_s restart_delay);
      let restart_ns = now () in
      Cluster.spawn c victim;
      let deadline = restart_ns + ns_of_s 10. in
      let rec poll f =
        match f () with
        | Some x -> Some x
        | None when now () < deadline ->
            Unix.sleepf 0.002;
            poll f
        | None -> None
      in
      let accepts () =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        let ok =
          match
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_loopback, (Cluster.ports c).(victim)))
          with
          | () -> true
          | exception Unix.Unix_error _ -> false
        in
        Unix.close fd;
        if ok then Some (now ()) else None
      in
      let cycle =
        let accepted = poll accepts in
        match (accepted, Gen.last_acked_after g ~since:kill_ns) with
        | Some accepted, Some k -> (
            (* the newest write acknowledged by now was committed while
               the victim was down *)
            let want = "=" ^ Chaos.Campaign.expected_value ~value_bytes k in
            let read () =
              if Cluster.probe c victim ("get u" ^ string_of_int k) = Some want
              then Some (now ())
              else None
            in
            match poll read with
            | Some served ->
                {
                  kill_ns;
                  restore_ms = ms_between restart_ns accepted;
                  catchup_ms = ms_between accepted served;
                  read_ok = true;
                }
            | None -> { kill_ns; restore_ms = 0.; catchup_ms = 0.; read_ok = false })
        | _ -> { kill_ns; restore_ms = 0.; catchup_ms = 0.; read_ok = false }
      in
      observe c o;
      Some cycle

let kv_failover env =
  let c, setup_s = set_up env ~n:3 in
  with_rss_guard c @@ fun () ->
  let idle = if env.trace then idle_cpu_pct c else 0. in
  let leader = wait_leader c in
  let member = (leader + 1) mod 3 in
  let g =
    Gen.create ~spans:env.spans ~ports:(Cluster.ports c) ~member
      ~check:stored_ok ()
  in
  let rng = Sim.Prng.create (Int64.of_int env.seed) in
  let o = { last = Some leader; changes = 0; stop = false } in
  let rate = 4_000. in
  (* warm-up: the log grows to tens of thousands of decrees; CPU per
     command over its first and last tenth is the cost of history *)
  let warm = ns_of_s (scaled env 7.) in
  let tenth = warm / 10 in
  let start = now () in
  let marks = Array.make 4 [||] in
  let timeline () =
    marks.(0) <- cpu_all c;
    watch_until c o (start + tenth);
    marks.(1) <- cpu_all c;
    watch_until c o (start + warm - tenth);
    marks.(2) <- cpu_all c;
    watch_until c o (start + warm);
    marks.(3) <- cpu_all c
  in
  let th = Thread.create timeline () in
  Gen.open_loop g ~rng ~rate ~duration_ns:warm ~step:0 ~op:unique_op;
  Thread.join th;
  Gen.drain g ~deadline:(now () + ns_of_s 5.);
  let per_cmd (m0, m1) ~from ~until is =
    let n = Gen.completions_between g ~from ~until in
    let cpu =
      List.fold_left
        (fun acc i ->
          acc +. Option.value ~default:0. (cpu_delta marks.(m0) marks.(m1) i))
        0. is
    in
    if n > 0 then cpu *. 1e6 /. float_of_int n else 0.
  in
  let all = [ 0; 1; 2 ] in
  let early = per_cmd (0, 1) ~from:start ~until:(start + tenth) in
  let late = per_cmd (2, 3) ~from:(start + warm - tenth) ~until:(start + warm) in
  let followers = List.filter (fun i -> i <> leader) all in
  let cpu_layers =
    [
      ("replica.cpu_us_per_cmd.early", early all);
      ("replica.cpu_us_per_cmd.late", late all);
      ("replica.cpu_us_per_cmd.leader", late [ leader ]);
      ("replica.cpu_us_per_cmd.follower", late followers /. 2.);
    ]
  in
  (* capacity on the deep log *)
  let capacity = closed_capacity env g ~step:1 ~op:unique_op in
  (* failover cycles under the same open-loop load, then a quiet tail *)
  let cycle_len = 2.5 and restart_delay = 0.5 in
  let n_cycles = Stdlib.max 3 (int_of_float (Float.round (scaled env 4.))) in
  let cycles = ref [] in
  let start2 = now () in
  let stop = start2 + ns_of_s ((float_of_int n_cycles *. cycle_len) +. 1.) in
  let orchestrate () =
    for k = 0 to n_cycles - 1 do
      watch_until c o (start2 + ns_of_s (0.5 +. (float_of_int k *. cycle_len)));
      match failover_cycle c g o ~restart_delay with
      | Some cy -> cycles := cy :: !cycles
      | None -> ()
    done
  in
  let orch = Thread.create orchestrate () in
  Gen.open_loop g ~rng ~rate ~duration_ns:(stop - start2) ~step:2
    ~op:unique_op;
  Thread.join orch;
  Gen.drain g ~deadline:(now () + ns_of_s 5.);
  Gen.close g;
  let cycles = List.rev !cycles in
  let lat =
    Stats.sorted
      (Array.append (Gen.latencies g ~step:0) (Gen.latencies g ~step:2))
  in
  let agree = checksums_agree c in
  let check_u =
    String.concat " "
      ("check_u" :: string_of_int value_bytes :: string_of_int g.Gen.next_rid
      :: List.map string_of_int (Gen.failed_rids g))
  in
  let acked_hold =
    List.for_all
      (fun i -> Cluster.probe_int c i check_u = Some 0)
      (List.init (Cluster.size c) Fun.id)
  in
  let final_leader = Option.value ~default:leader (Cluster.leader c) in
  let decrees =
    Option.value ~default:0 (Cluster.probe_int c final_leader "chosen")
  in
  let netio = netio_layer c in
  let snapshot_mb = Cluster.snapshot_mb c in
  Cluster.stop c;
  let rss_leader, rss_follower = rss_split c ~leader:final_leader in
  (* per-cycle recovery verdicts over the samples up to the next kill *)
  let bound =
    Dgl.Config.decision_bound (Dgl.Config.make ~n:3 ~delta:Cluster.delta ())
  in
  let verdicts =
    List.mapi
      (fun k cy ->
        let until =
          match List.nth_opt cycles (k + 1) with
          | Some next -> next.kill_ns
          | None -> stop
        in
        Stats.cycle_outage ~bound
          ~kill:(float_of_int cy.kill_ns /. 1e9)
          ~until:(float_of_int until /. 1e9)
          (Gen.samples g ~from:(cy.kill_ns - ns_of_s 1.) ~until))
      cycles
  in
  let med f xs =
    if xs = [] then 0. else Stats.median (Array.of_list (List.map f xs))
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("rss_mb", Float.max rss_leader rss_follower);
      ("p50_ms.4k", Option.value ~default:Float.infinity (pct lat 0.5));
      ("p99_ms.4k", Option.value ~default:Float.infinity (pct lat 0.99));
      ("outage_ms", med (fun v -> v.Smr.Recovery.stall *. 1e3) verdicts);
      ("restart_ms", med (fun cy -> cy.restore_ms +. cy.catchup_ms) cycles);
    ]
  in
  let layer =
    netio @ generator_layer [ g ]
    @ [
        ( "gen.lag_ms.p99",
          Option.value ~default:0. (Stats.percentile (Gen.lags_ms g ~step:2) 0.99) );
      ]
    @ wire_layer env.spans @ cpu_layers
    @ [
        ("deeplog.capacity_cmd_s", capacity);
        ("failover.cycles", float_of_int (List.length cycles));
        ("restart.restore_ms", med (fun cy -> cy.restore_ms) cycles);
        ("restart.catchup_ms", med (fun cy -> cy.catchup_ms) cycles);
        ( "recovery.stall_ms",
          List.fold_left
            (fun acc v -> Float.max acc (v.Smr.Recovery.stall *. 1e3))
            0. verdicts );
        ( "recovery.ok",
          float_of_int (List.length (List.filter Smr.Recovery.ok verdicts)) );
        ("replica.rss_mb.leader", rss_leader);
        ("replica.rss_mb.follower", rss_follower);
        ("replica.snapshot_mb", snapshot_mb);
        ("paxos.decrees", float_of_int decrees);
        ("paxos.leader_changes", float_of_int o.changes);
      ]
    @ if env.trace then [ ("replica.idle_cpu_pct", idle) ] else []
  in
  let checks =
    [
      ("three or more failover cycles ran", List.length cycles >= 3);
      ("every acknowledged write holds on every replica", acked_hold);
      ("replica checksums agree", agree);
      ( "restarted replicas read back a write made while down",
        List.for_all (fun cy -> cy.read_ok) cycles );
    ]
    @ List.mapi
        (fun k v ->
          (Printf.sprintf "recovery bound, cycle %d" k, Smr.Recovery.ok v))
        verdicts
  in
  {
    Outcome.attempted = g.Gen.sent + List.length checks;
    failed =
      g.Gen.failed + List.length (List.filter (fun (_, ok) -> not ok) checks);
    checks;
    e2e;
    layer;
  }
