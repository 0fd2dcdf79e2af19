(* Entry point of the repository benchmark; see README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
   report the workload's end-to-end metrics, traced runs its per-layer
   ones; a run reports every name of its catalogue (a layer that did no
   work reports 0).  [main.exe replica ...] is the replica-host mode the
   live workloads spawn. *)

open Perfbench

(* [kv-ramp] and [repro] are the gated workloads of BENCHMARK.json.
   [kv-failover] stays runnable but ungated: on the seed it fails its own
   correctness checks (README, "Seed observations"). *)
let workloads = [ "kv-ramp"; "repro"; "kv-failover" ]

(* End-to-end metrics (untraced runs).  The gated workloads share one
   catalogue; each gives the names its own meaning (README).  Their wall
   clock latency and throughput moved by 30-40% with the host's CPU
   steal, beyond any usable bound, so those are per-layer metrics
   ("wall.*") and the gate holds the metrics that stayed steady. *)
let end_to_end = function
  | "kv-failover" ->
      [ ("setup_s", "s"); ("rss_mb", "MB"); ("p50_ms.4k", "ms");
        ("p99_ms.4k", "ms"); ("outage_ms", "ms"); ("restart_ms", "ms") ]
  | _ -> [ ("setup_s", "s"); ("rss_mb", "MB"); ("cpu_us_per_op", "us") ]

let counts = List.map (fun n -> (n, "count"))
let in_unit u = List.map (fun n -> (n, u))

let gen_counts =
  counts
    [ "gen.sent"; "gen.completed"; "gen.failed"; "gen.refused"; "gen.resent";
      "gen.reconnects"; "gen.late"; "gen.inflight.max" ]

let replica_common =
  counts [ "netio.partial_timeouts"; "netio.input_overflows";
           "netio.accept_backoffs"; "paxos.decrees"; "paxos.leader_changes" ]
  @ in_unit "us"
      [ "wire.encode_us"; "wire.decode_us"; "sock.write_us";
        "replica.cpu_us_per_cmd.leader"; "replica.cpu_us_per_cmd.follower" ]
  @ [
      ("replica.idle_cpu_pct", "%");
      ("replica.rss_mb.leader", "MB");
      ("replica.rss_mb.follower", "MB");
      ("replica.snapshot_mb", "MB");
    ]

let ramp_layers =
  gen_counts @ replica_common
  @ counts [ "paxos.decrees.2k"; "paxos.decrees.10k"; "ramp.rounds" ]
  @ in_unit "ms"
      [ "gen.p50_ms.2k"; "gen.p99_ms.2k"; "gen.p50_ms.10k"; "gen.p99_ms.10k";
        "gen.lag_ms.p99.2k"; "gen.lag_ms.p99.10k"; "paxos.replication_ms.2k" ]
  @ [ ("kv.apply_us", "us") ]
  @ in_unit "ratio"
      [ "replica.cmds_per_decree.2k"; "replica.cmds_per_decree.10k";
        "replica.cmds_per_decree.closed" ]

let failover_layers =
  gen_counts @ replica_common
  @ counts [ "failover.cycles"; "recovery.ok" ]
  @ in_unit "ms"
      [ "gen.lag_ms.p99"; "restart.restore_ms"; "restart.catchup_ms";
        "recovery.stall_ms" ]
  @ in_unit "us" [ "replica.cpu_us_per_cmd.early"; "replica.cpu_us_per_cmd.late" ]
  @ [ ("deeplog.capacity_cmd_s", "1/s") ]

let repro_layers =
  [
    ("repro.rounds", "count");
    ("pool.speedup", "ratio");
    ("engine.ns_per_event", "ns");
    ("engine.alloc_words_per_event", "words");
    ("fuzz.runs_per_s", "1/s");
    ("fuzz.events", "count");
    ("fuzz.msgs", "count");
    ("fuzz.shrink_tries", "count");
    ("fuzz.run_us.p50", "us");
    ("fuzz.run_us.p99", "us");
    ("invariants.check_us", "us");
    ("mcheck.states", "count");
    ("mcheck.transitions", "count");
    ("mcheck.visited_mb", "MB");
    ("mcheck.successors_us", "us");
    ("mcheck.fingerprint_ns", "ns");
  ]
  @ List.map (fun id -> ("tables." ^ id ^ "_ms", "ms")) Harness.Experiments.ids

(* Per-layer metrics (traced runs).  The gated workloads share one
   catalogue, the union of their layers (a layer a workload does not
   exercise reports 0); then the host's steal, the traced run's own
   end-to-end values (the tracing overhead is their distance from the
   untraced runs), and the span store's size and cost. *)
let per_layer workload =
  (match workload with
  | "kv-failover" -> failover_layers
  | _ -> ramp_layers @ repro_layers)
  @ [
      ("wall.time_ms", "ms");
      ("wall.throughput_per_s", "1/s");
      ("host.steal_pct", "%");
    ]
  @ List.map (fun (n, u) -> ("trace." ^ n, u)) (end_to_end workload)
  @ [ ("trace.spans", "count"); ("trace.span_ns", "ns") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (kv-ramp|repro|kv-failover) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let parse args =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let remove_tree d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* cost of one span: two clock reads and a record *)
let span_ns () =
  let s = Spans.create ~enabled:true in
  let k = Spans.kind s "probe" in
  let n = 200_000 in
  let t0 = Spans.now_ns () in
  for i = 1 to n do
    let a = Spans.now_ns () in
    Spans.record s ~kind:k ~id:i ~parent:(-1) ~start:a ~stop:(Spans.now_ns ())
  done;
  float_of_int (Spans.now_ns () - t0) /. float_of_int n

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let bench args =
  let workload, seed, seconds, trace = parse args in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Cluster.kill_all_children;
  let quit _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  let out = Filename.concat "perfbench" "_out" in
  let dir =
    Filename.concat out (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()))
  in
  mkdir_p dir;
  let spans = Spans.create ~enabled:trace in
  let env =
    { Live.exe = Sys.executable_name; dir; seed; seconds; trace; spans }
  in
  let o =
    match workload with
    | "kv-ramp" -> Live.kv_ramp env
    | "kv-failover" -> Live.kv_failover env
    | _ -> Repro.run ~seed ~seconds ~trace ~spans
  in
  remove_tree dir;
  List.iter
    (fun (name, ok) ->
      Printf.eprintf "%s %s\n" (if ok then "ok  " else "FAIL") name)
    o.Outcome.checks;
  let catalogue, values =
    if trace then begin
      Spans.write spans
        (Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" workload seed));
      let traced =
        [
          ("trace.spans", float_of_int (Spans.count spans));
          ("trace.span_ns", span_ns ());
        ]
        @ List.map (fun (n, v) -> ("trace." ^ n, v)) o.Outcome.e2e
      in
      (per_layer workload, traced @ o.Outcome.layer)
    end
    else (end_to_end workload, o.Outcome.e2e)
  in
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | Some _ | None ->
              if not trace then missing := name :: !missing;
              0.
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      catalogue
  in
  List.iter (Printf.eprintf "FAIL no value for %s\n") !missing;
  let correct = Outcome.failed_checks o = [] && o.Outcome.failed = 0 && !missing = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.Outcome.attempted
    (o.Outcome.failed + List.length !missing)
    (String.concat ", " metrics)

let () =
  match Array.to_list Sys.argv with
  | _ :: "replica" :: rest -> Cluster.serve_child rest
  | _ :: args -> (
      try bench args
      with e ->
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 1)
  | [] -> usage ()
