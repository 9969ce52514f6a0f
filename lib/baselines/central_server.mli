(** Server-based centralized schedulers speaking the Draconis protocol
    (paper §8: Draconis-Socket-Server and Draconis-DPDK-Server).

    One host runs the scheduler: a FIFO task queue in server memory,
    pull-model executors, piggybacked requests — the same protocol as
    the switch.  Unlike the switch, the server has ample memory, so an
    optimized implementation {e parks} idle pull requests instead of
    answering with no-ops, and matches them with tasks as work arrives.
    Every packet handled (in or out) costs the single node CPU time,
    which caps throughput (~160 ktps for POSIX sockets, ~1.1 Mtps for
    DPDK) and inflates latency as load approaches the cap — the
    single-node bottleneck of §2.3.1. *)

open Draconis_sim
open Draconis_net
open Draconis

type variant =
  | Socket  (** POSIX-socket Draconis server (paper's ~160 ktps cap) *)
  | Dpdk  (** kernel-bypass Draconis server *)
  | Firmament
      (** Firmament-style centralized scheduler: min-cost-flow placement
          amortized to a per-packet cost whose ceiling matches the
          paper's "cannot scale past 1200 executors at 5 ms tasks" *)
  | Spark_native
      (** Spark's native scheduler: millisecond-scale per-task overhead;
          the paper measured 3 s scheduling delays at 50% utilization
          with 500 us tasks *)

(** Calibrated per-packet CPU cost of a variant. *)
val per_packet_cost : variant -> Time.t

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  variant : variant;
  queue_capacity : int;  (** server memory is ample; bound for safety *)
  noop_retry : Time.t;
  fabric_config : Fabric.config;
  client_timeout : Time.t option;
}

(** Paper shape: 10x16 executors, 2 clients, DPDK variant. *)
val default_config : config

type t

val create : config -> t

(** [start t] launches the executors' pull loops. *)
val start : t -> unit

val engine : t -> Engine.t
val fabric : t -> Draconis_proto.Message.t Fabric.t
val metrics : t -> Metrics.t
val client : t -> int -> Client.t
val clients : t -> Client.t array
val workers : t -> Worker.t array

(** {2 Fault injection} *)

(** [fail_over_server t] models the server host dying and a cold standby
    taking over: the in-memory task queue and parked pull requests are
    lost.  Returns the number of queued tasks lost; clients recover them
    via timeouts, executors re-announce via watchdogs. *)
val fail_over_server : t -> int

(** [crash_worker t i] crashes every executor on worker [i]. *)
val crash_worker : t -> int -> unit

val restart_worker : t -> int -> unit

(** [set_node_slowdown t i f] straggler degradation (f >= 1.0). *)
val set_node_slowdown : t -> int -> float -> unit

(** Tasks bounced by a full server queue. *)
val rejected : t -> int

(** Tasks currently queued at the server. *)
val queue_length : t -> int

(** Pull requests currently parked (idle executors). *)
val idle_executors : t -> int

(** Messages the server CPU has processed. *)
val packets_processed : t -> int

val run : t -> until:Time.t -> unit
val run_until_drained : t -> deadline:Time.t -> bool
val outstanding : t -> int
val total_executors : t -> int
