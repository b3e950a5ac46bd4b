// Package store implements the (Wsim, λsim) memory of Algorithms 1-2: the
// matrix of already-simulated configurations and their measured metric
// values, with the L1 radius queries that collect the kriging support of
// a new configuration.
//
// # Concurrency: builder writes, epoch-published views
//
// The store is safe for concurrent use. Writers serialise on one mutex
// and mutate a private builder — an append-only entries array with
// capacity doubling plus an incrementally updated key table — and
// publish an immutable view through an atomic pointer, so Lookup,
// Neighbors and the other read paths never take a lock. One writer lock
// costs nothing the workloads notice: live writers are simulations, and
// bulk loads go through AddBatch. A view is pinned by its entries length
// (its epoch): later inserts append beyond every older view's length and
// are filtered out of shared-table probes by position, which makes
// inserts amortized O(1) instead of the O(store size) of a copy-on-write
// scheme. Re-adding a configuration appends an O(1) replacement version
// that keeps the original sequence stamp; views that contain the
// replacement skip the superseded version, while older views (and
// Snapshots) keep reporting the value current at their epoch. A
// monotone sequence number stamped on every entry preserves the
// insertion order the sequential pseudo-code relies on (neighbourhoods
// and Entries are always reported oldest-first, so NearestK
// tie-breaking stays deterministic); it differs from the append order
// once a configuration has been overwritten.
//
// AddBatch is the bulk-write path: it stamps a batch in input order and
// publishes one view, so ingesting a replayed trace, a restored campaign
// or a batch-evaluation commit costs one publication rather than one
// per entry, with results indistinguishable from a loop of Adds. A
// batch is all-or-nothing for readers: they observe either the
// pre-batch or the post-batch view, never a torn intermediate.
//
// # Radius queries: the linear scan
//
// Neighbors(w, d) is the pseudo-code's scan: every live entry of the
// view within L1 distance d of w is a hit, the hits are sorted by the
// sequence, and the neighbourhood comes back oldest-first.
// NearestK(w, d, k) runs the same scan and, when more than k entries are
// in range, orders the hits by (distance, sequence) and keeps the first
// k — exactly Neighbors(w, d).NearestK(k). The scan is pruned by a lower
// bound without false dismissals: for integer configurations
// |Σa − Σb| <= L1(a, b), so an entry whose coordinate sum (stored with
// it at insertion) differs from the query's by more than d is skipped
// before its L1 distance. The results are exactly the full scan's; on
// the paper's hevc stores about one entry in twenty passes the filter.
// The bound is why the store measures L1 only.
// The *Into variants (NeighborsInto, NearestKInto) refill a caller-owned
// Neighborhood buffer — result slices and collection scratch included —
// so warm steady-state queries allocate nothing; the plain forms are
// thin allocating wrappers.
//
// Snapshot freezes the current contents in O(1): the batch evaluator
// uses it to make all interpolation decisions of one batch against the
// store as it stood on entry, regardless of concurrent writers. Snapshots are immune to later overwrites of the entries they
// contain.
//
// # Persistence: Open and the write-ahead log
//
// New returns an in-memory store with no I/O anywhere.
// Open(DurabilityOptions{Dir: dir}) returns a store whose writes are
// durable: every Add/AddBatch appends one checksummed, fsynced record to
// a write-ahead segment log (internal/store/wal) before touching memory
// — group commit, O(1) allocations per batch. Logging and applying share
// the writer lock, so the log's record order is the sequence order, and
// reopening the same directory replays the log back through the
// AddBatch path, bit-identical query surface included. Recovery truncates a torn final
// record (the residue of a crash mid-append) and refuses interior
// corruption with wal.ErrCorrupt. The log is never truncated:
// superseded overwrite versions stay on disk and in memory (Versions
// counts them), which costs little because a campaign simulates each
// configuration once.
// After any I/O error the store goes fail-stop: writes return the sticky
// error (also via Err()), reads keep working.
package store
