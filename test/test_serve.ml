(* Single-process loopback cluster: three replicas on 127.0.0.1 with
   port 0 (no free-port assumptions), each run on its own thread, driven
   by the blocking client.  Exercises the whole socket stack — framing,
   peer mesh, batching/pipelining, KV semantics, replication. *)

open Smr

let localhost = "127.0.0.1"

let delta = 0.02

let start_cluster ?(batch = 16) ?(window = 16) n =
  let cluster = Array.make n (localhost, 0) in
  let replicas =
    Array.init n (fun id ->
        Replica.create
          {
            (Replica.default_config ~id ~cluster) with
            delta;
            batch;
            window;
            seed = 7;
          })
  in
  let ports = Array.map Replica.port replicas in
  Array.iter (fun r -> Replica.set_peer_ports r ports) replicas;
  let threads =
    Array.map (fun r -> Thread.create (fun () -> Replica.run r) ()) replicas
  in
  (replicas, ports, threads)

let stop_cluster replicas threads =
  Array.iter Replica.stop replicas;
  Array.iter Thread.join threads

let endpoints ports = Array.map (fun p -> (localhost, p)) ports

let test_kv_semantics () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.get c "missing" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "get of a missing key should be absent");
          (match Client.put c ~key:"a" ~value:"1" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put should be acknowledged");
          (match Client.get c "a" with
          | Wire.R_value (Some "1") -> ()
          | _ -> Alcotest.fail "get should see the put");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"2" with
          | Wire.R_cas { ok = true; _ } -> ()
          | _ -> Alcotest.fail "matching cas should succeed");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"3" with
          | Wire.R_cas { ok = false; actual = Some "2" } -> ()
          | _ -> Alcotest.fail "stale cas should fail with the live value");
          match Client.get c "a" with
          | Wire.R_value (Some "2") -> ()
          | _ -> Alcotest.fail "failed cas must not write"))

let test_pipelined_load_replicates () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 2_000;
                pipeline = 32;
                seed = 11;
              })
      in
      Alcotest.(check int) "all commands completed" 2_000
        report.Client.completed;
      Alcotest.(check bool) "made progress" true
        (report.Client.throughput > 0.);
      (* replication: every replica converges to the same chosen count *)
      let deadline = Unix.gettimeofday () +. 10. in
      let converged () =
        let counts = Array.map Replica.chosen_count replicas in
        Array.for_all (fun c -> c = counts.(0) && c > 0) counts
      in
      while (not (converged ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "replicas converged on the chosen log" true
        (converged ()))

let test_client_batch_rejected () =
  (* the batch opcode is replica-internal (WIRE.md §5): a well-formed
     client batch request must be answered with an error reply, not
     admitted into the backlog — where the replica's own folding would
     nest it and crash the process (regression: REVIEW finding) *)
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let batch =
            Command.Batch
              [
                Command.make ~id:1
                  (Command.Kv_put { key = "sneaky"; value = "1" });
                Command.make ~id:2
                  (Command.Kv_put { key = "sneakier"; value = "2" });
              ]
          in
          (* two in a row so a folded backlog of >= 2 would have nested *)
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (* the connection and the replica both survived the rejection *)
          (match Client.put c ~key:"after" ~value:"ok" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put after rejected batch should succeed");
          (match Client.get c "after" with
          | Wire.R_value (Some "ok") -> ()
          | _ -> Alcotest.fail "get after rejected batch should succeed");
          match Client.get c "sneaky" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "rejected batch must not have been applied"))

let test_batching_counts () =
  (* with batch >> pipeline disabled (batch=1) every command is its own
     decree; with batching on, decrees are far fewer than commands *)
  let replicas, ports, threads = start_cluster ~batch:32 ~window:8 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 1_000;
                pipeline = 64;
                seed = 5;
              })
      in
      Alcotest.(check int) "all commands completed" 1_000
        report.Client.completed;
      let batches =
        Array.fold_left
          (fun acc r ->
            acc
            + Sim.Registry.counter_total (Replica.registry r) "serve_batches")
          0 replicas
      in
      Alcotest.(check bool)
        (Printf.sprintf "batching folds commands into decrees (%d batches)"
           batches)
        true
        (batches > 0 && batches < 1_000))

(* Netio peeks its earliest timer on every step to size the select
   timeout.  A timer armed after such a peek, with an earlier deadline,
   must still fire first — a queue whose floor advances on peek cannot
   hold it at all. *)
let test_netio_timer_order () =
  let loop = Realtime.Netio.create () in
  let fired = ref [] in
  Realtime.Netio.after loop 0.05 (fun () -> fired := "50 ms" :: !fired);
  Realtime.Netio.step loop 0.;
  Realtime.Netio.after loop 0.005 (fun () -> fired := "5 ms" :: !fired);
  let give_up = Realtime.Netio.now loop +. 2.0 in
  while List.length !fired < 2 && Realtime.Netio.now loop < give_up do
    Realtime.Netio.step loop 0.1
  done;
  Realtime.Netio.shutdown loop;
  Alcotest.(check (list string))
    "fired in deadline order" [ "5 ms"; "50 ms" ] (List.rev !fired)

let suite =
  [
    Alcotest.test_case "kv semantics over the loopback cluster" `Quick
      test_kv_semantics;
    Alcotest.test_case "pipelined load completes and replicates" `Quick
      test_pipelined_load_replicates;
    Alcotest.test_case "client-submitted batch is rejected" `Quick
      test_client_batch_rejected;
    Alcotest.test_case "batching folds commands into decrees" `Quick
      test_batching_counts;
    Alcotest.test_case "netio timers fire in deadline order" `Quick
      test_netio_timer_order;
  ]
