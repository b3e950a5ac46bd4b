// Package wal is the durable backend of the configuration store: an
// append-only, checksummed segment log with crash recovery.
//
// # Write path: group commit
//
// Every store write — one AddBatch, or a single Add framed as a
// one-entry batch — becomes ONE log record: a length prefix, a crc32c
// (Castagnoli) checksum, and the batch payload, appended to the current
// segment file and fsynced once (SyncBatch, the default). Batches are
// therefore atomic on disk: after a crash a batch is either fully
// recovered or fully absent, never split. The record is encoded into a
// buffer reused across appends, so group commit costs O(1) allocations
// per batch no matter how many entries it carries — the same slab
// discipline as the in-memory bulk path.
//
// # Recovery: torn tails versus interior corruption
//
// Opening a log validates the whole chain and distinguishes two kinds
// of damage:
//
//   - A TORN FINAL RECORD — the final segment ends mid-record, or its
//     last record extends to end-of-file with a failing checksum — is
//     the expected residue of a crash mid-append. Nothing beyond it was
//     ever acknowledged, so recovery truncates the tail and continues.
//   - INTERIOR CORRUPTION — a checksum failure or truncation with
//     further data beyond it, a gap in the segment sequence (which must
//     start at 1), a header from the wrong version — means acknowledged
//     records are unreadable. Open refuses with ErrCorrupt rather than
//     silently dropping committed data. So does a snapshot file
//     (snap-*.snap) left by an older version of the log, which cut them
//     to truncate the log: the log no longer reads them, and skipping one
//     would lose its contents.
//
// Recovered state is surfaced through Replay in commit order, one call
// per logged batch; replaying is strictly cheaper than re-simulating the
// configurations the log remembers, which is the point: simulations
// dominate wall-clock, so a warm store that survives restarts is a
// direct performance win.
//
// # Failure model
//
// A failed write or fsync makes the log fail-stop: the append that
// failed was never acknowledged, and every later operation returns the
// same sticky error. The store layer mirrors this (Store.Err): refusing
// further writes is the only honest answer once durability is gone.
// The faultfs subpackage injects short writes, fsync failures and
// power-cut truncation to test exactly these paths.
package wal
