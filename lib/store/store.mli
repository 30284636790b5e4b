(** Crash-safe persistent graph store: fixed-size pages holding a label
    dictionary and CSR-style adjacency segments, read through an LRU
    buffer pool; a CRC32-guarded write-ahead log with fsync barriers;
    ARIES-style recovery (analysis, then redo of committed transactions,
    discarding torn tails); value/text/path indexes and the DataGuide
    checkpointed as segments and opened lazily — a cold open answers
    indexed queries without rebuilding anything.

    A commit is acknowledged only after the WAL fsync returns; an
    acknowledged commit survives any crash, and recovery always restores
    exactly one committed version (never a mix).  The crash-recovery
    fuzzer ([test/crash_fuzz.ml]) checks this against thousands of
    seeded crash, torn-write and bit-flip schedules. *)

type t

(** What {!open_} found: how many committed transactions it replayed,
    how many torn tail bytes it discarded, and whether the store had
    been closed cleanly (in which case recovery was skipped). *)
type recovery = {
  recovered_txns : int;
  torn_bytes : int;
  was_clean : bool;
}

(** All maintainable index segments: ["value"; "text"; "path"; "guide"]. *)
val all_indexes : string list

(** [create vfs g] initializes a store holding [g] and returns it open.
    [indexes] (default: all) selects which index segments the store
    maintains at every commit. *)
val create :
  ?page_size:int ->
  ?indexes:string list ->
  ?path_depth:int ->
  ?pool_pages:int ->
  Vfs.t ->
  Ssd.Graph.t ->
  t

(** Open an existing store, running recovery if it is needed.  A data
    file with a bad header — wrong magic, or a format version other than
    the current one — raises [Ssd_diag.Fail] with [SSD560].  The store
    checkpoints only when asked ({!checkpoint}, {!compact}) and on
    {!close}; between checkpoints the WAL grows by one transaction per
    {!commit}. *)
val open_ : ?pool_pages:int -> Vfs.t -> t

(** Durably replace the stored graph: segments are re-encoded, changed
    pages and the new superblock are appended to the WAL, and the WAL is
    fsynced before this returns.

    [delta], when the caller already has it, must equal
    [Ssd_incr.Delta.diff (graph t) g]; the index maintainer then uses it
    instead of computing the diff again.

    If the commit fails part-way (an I/O error from the WAL [pwrite] or
    [fsync], or anything else after index maintenance starts), the
    unacknowledged transaction is cut from the log where possible and
    the store is {e poisoned}: every later [commit] and {!checkpoint}
    raises [SSD566], {!close} releases the files without writing, and
    the [store.poisoned] gauge reads 1.  Reopening recovers the last
    acknowledged version.

    @raise Ssd_diag.Fail [SSD566] on a poisoned store. *)
val commit : ?delta:Ssd_incr.Delta.t -> t -> Ssd.Graph.t -> unit

(** Apply logged pages to the data file and truncate the WAL.  A
    checkpoint that fails part-way (say the WAL is truncated but its
    [fsync] raises) poisons the store like a failed {!commit}: the
    in-memory log position may no longer match the file, and a later
    commit written there could be acknowledged and then lost.
    @raise Ssd_diag.Fail [SSD566] on a poisoned store. *)
val checkpoint : t -> unit

(** Apply the log and trim the data file to its live pages (layout is
    re-derived tightly at each commit, so this is a checkpoint). *)
val compact : t -> unit

(** Checkpoint, set the clean-shutdown flag and close the files; a
    subsequent {!open_} skips recovery.  On a poisoned store it only
    closes the files, leaving recovery to the next {!open_}.  If the
    checkpoint fails, the store is poisoned, the files are still
    released, and the error is re-raised. *)
val close : t -> unit

val graph : t -> Ssd.Graph.t
val recovery : t -> recovery
val page_size : t -> int

(** Depth the path index was built with (fixed at {!create}). *)
val path_depth : t -> int

val n_pages : t -> int

(** Logged WAL bytes (the file minus its fixed header; 0 right after a
    checkpoint). *)
val wal_size : t -> int

(** Index segments this store maintains. *)
val indexes : t -> string list

(** Lazy index access: the in-memory cache, else the checkpointed
    segment (deserialized, not rebuilt), else a build from the graph. *)
val value_index : t -> Ssd_index.Value_index.t

val text_index : t -> Ssd_index.Text_index.t
val path_index : t -> Ssd_index.Path_index.t
val dataguide : t -> Ssd_schema.Dataguide.t

(** Canonical serialized bytes of one index ("value", "text", "path" or
    "guide") — the byte-identity oracle for the fuzzer. *)
val index_segment_bytes : t -> string -> bytes

(** CRC32 chain over the canonical dict + graph segment payloads; equal
    fingerprints mean byte-identical durable content. *)
val fingerprint : t -> int

(** The fingerprint [commit g] would persist — the committed-prefix
    oracle computes these without a store. *)
val fingerprint_graph : Ssd.Graph.t -> int

type stat = {
  stat_page_size : int;
  stat_n_pages : int;
  stat_wal_bytes : int;
  stat_clean : bool;
  stat_segs : (string * int) list;
  stat_nodes : int;
  stat_edges : int;
}

val stat : t -> stat

(** Offline structural check (read-only).  Stable codes: [SSD560] bad
    magic/version, [SSD561] CRC mismatch, [SSD562] torn WAL tail,
    [SSD563] dangling page reference, [SSD564] malformed segment,
    [SSD565] recovery pending. *)
val fsck : Vfs.t -> Ssd_diag.t list
