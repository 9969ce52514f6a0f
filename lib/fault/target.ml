open Draconis_sim
open Draconis_net
open Draconis
open Draconis_baselines

type t = {
  name : string;
  engine : Engine.t;
  node_engine : int -> Engine.t;
  nodes : int;
  hosts : int;
  clients : Client.t array;
  set_windows : Fabric.window list -> unit;
  failover : unit -> int;
  crash_node : int -> unit;
  restart_node : int -> unit;
  set_slowdown : int -> float -> unit;
  supports_crash : bool;
  supports_straggler : bool;
}

let unsupported name op _ =
  invalid_arg (Printf.sprintf "Fault target %s: %s unsupported" name op)

(* Every system lays its clients out after all other hosts. *)
let hosts_through clients =
  Array.fold_left
    (fun acc client ->
      match Client.addr client with Addr.Host h -> max acc (h + 1) | Addr.Switch -> acc)
    0 clients

let of_cluster ?(name = "draconis") cluster =
  let workers = Cluster.workers cluster in
  {
    name;
    engine = Cluster.engine cluster;
    node_engine = (fun i -> Worker.engine workers.(i));
    nodes = Array.length workers;
    hosts = hosts_through (Cluster.clients cluster);
    clients = Cluster.clients cluster;
    set_windows = Fabric.set_windows (Cluster.fabric cluster);
    failover = (fun () -> Cluster.fail_over_switch cluster);
    crash_node = Cluster.crash_worker cluster;
    restart_node = Cluster.restart_worker cluster;
    set_slowdown = Cluster.set_node_slowdown cluster;
    supports_crash = true;
    supports_straggler = true;
  }

let of_central_server ?(name = "central-server") server =
  let engine = Central_server.engine server in
  {
    name;
    engine;
    node_engine = (fun _ -> engine);
    nodes = Array.length (Central_server.workers server);
    hosts = hosts_through (Central_server.clients server);
    clients = Central_server.clients server;
    set_windows = Fabric.set_windows (Central_server.fabric server);
    failover = (fun () -> Central_server.fail_over_server server);
    crash_node = Central_server.crash_worker server;
    restart_node = Central_server.restart_worker server;
    set_slowdown = Central_server.set_node_slowdown server;
    supports_crash = true;
    supports_straggler = true;
  }

(* A push-executor baseline: fabric faults and switch fail-over only. *)
let fabric_only ~name ~engine ~fabric ~clients ~failover =
  {
    name;
    engine;
    node_engine = (fun _ -> engine);
    nodes = 0;
    hosts = hosts_through clients;
    clients;
    set_windows = Fabric.set_windows fabric;
    failover;
    crash_node = unsupported name "crash";
    restart_node = unsupported name "restart";
    set_slowdown = (fun _ -> unsupported name "straggler");
    supports_crash = false;
    supports_straggler = false;
  }

let of_r2p2 ?(name = "r2p2") r2p2 =
  fabric_only ~name ~engine:(R2p2.engine r2p2) ~fabric:(R2p2.fabric r2p2)
    ~clients:(R2p2.clients r2p2)
    ~failover:(fun () -> R2p2.fail_over_switch r2p2)

let of_racksched ?(name = "racksched") racksched =
  fabric_only ~name ~engine:(Racksched.engine racksched)
    ~fabric:(Racksched.fabric racksched) ~clients:(Racksched.clients racksched)
    ~failover:(fun () -> Racksched.fail_over_switch racksched)
