(** Binary serialization of data graphs — the one graph format, shared
    by [.bin] files, the persistent store's [dict]/[graph] segments and
    the DataGuide serializer.

    Section 4 distinguishes using the model as an interface to existing
    data from "building a data structure to represent semistructured data
    directly"; this module is the bottom of the second option: a compact,
    canonical binary format for graphs.

    Layout (all integers LEB128 varints, signed ones zigzagged): a
    dictionary part followed by a compressed-sparse-rows part.

    {v
      dictionary: magic "SSDD" | n_strings | strings (length-prefixed),
                  every distinct str/sym payload, strictly ascending
      CSR:        magic "SSDG" | n_nodes | root | n_edges
                  degrees block: one out-degree per node (summing to n_edges)
                  edges block, row by row: label, then target node
      labels:     tag byte (0=ε 1=int 2=float 3=str 4=bool 5=sym),
                  payload (varint / 8-byte IEEE / dictionary index / byte)
    v}

    Node identities survive a round-trip exactly (not just up to
    bisimilarity): the format stores the graph, not its value.  The
    encoding is canonical — re-encoding a decoded graph reproduces the
    same bytes. *)

val encode : Ssd.Graph.t -> bytes

(** The two parts of {!encode} separately: [(dictionary, csr)], with
    [encode g = Bytes.cat dictionary csr].  The store keeps them as two
    segments. *)
val encode_parts : Ssd.Graph.t -> bytes * bytes

(** Malformed input.  [offset] is the byte position of the defect;
    [expected]/[found] describe it ("magic \"SSDD\"" vs a 3-byte input,
    "a label tag in 0..5" vs 9, ...).  The decoders raise nothing else on
    any input, however truncated or bit-flipped (fuzz-tested): in
    particular, counts are validated against the bytes remaining before
    any allocation, and varints that would overflow the 62-bit range are
    rejected rather than wrapped. *)
exception Corrupt of {
  offset : int;
  expected : string;
  found : string;
}

(** @raise Corrupt on malformed input. *)
val decode : bytes -> Ssd.Graph.t

(** Decode a dictionary part on its own.
    @raise Corrupt on malformed input. *)
val decode_dict : bytes -> string array

(** Decode a CSR part against its decoded dictionary.
    @raise Corrupt on malformed input. *)
val decode_csr : dict:string array -> bytes -> Ssd.Graph.t

val write_file : string -> Ssd.Graph.t -> unit

(** @raise Corrupt on malformed file contents. *)
val read_file : string -> Ssd.Graph.t

(** Encoded size in bytes. *)
val encoded_size : Ssd.Graph.t -> int
