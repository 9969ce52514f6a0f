(** Binary wire format for {!Message.t} (paper Fig. 3).

    Layout (big-endian):
    - every packet starts with a 1-byte OP_CODE;
    - addresses are 16-bit host ids ([0xFFFF] denotes the switch);
    - TASK_INFO is a fixed 32-byte record: UID(4) JID(4) TID(4)
      FN_ID(2) FN_PAR(8) TPROPS(tag 1 + 8 payload) PAD(1) — fixed-size
      because a switch parser must know field offsets statically;
    - [job_submission] carries client(2) UID(4) JID(4) #TASKS(2)
      followed by #TASKS TASK_INFO records.

    The locality TPROPS variant carries at most {!max_locality_nodes}
    node ids on the wire; [encode] raises [Invalid_argument] beyond
    that (callers replicate data on few nodes, paper §8.5). *)

type error = Truncated | Bad_opcode of int | Bad_field of string

val pp_error : Format.formatter -> error -> unit

(** Fixed wire size of one TASK_INFO record, in bytes. *)
val task_info_size : int

(** UDP payload budget per packet (Ethernet MTU minus headers). *)
val mtu_payload : int

(** Most TASK_INFO records that fit one job_submission packet; jobs with
    more tasks must be split across packets (paper §4.3). *)
val max_tasks_per_packet : int

(** [encode msg] is the wire image of [msg].
    @raise Invalid_argument if the message violates a wire limit
    (too many tasks for one packet, too many locality nodes, field
    overflow). *)
val encode : Message.t -> bytes

(** [decode b] parses a wire image.  It holds every field to the limits
    {!encode} enforces and answers [Error (Bad_field _)] otherwise, so
    every message it returns re-encodes. *)
val decode : bytes -> (Message.t, error) result

(** [encoded_size msg] is [Bytes.length (encode msg)] without building
    the buffer. *)
val encoded_size : Message.t -> int
