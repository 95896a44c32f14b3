package serve

import "fmt"

// Group commit.
//
// Under Config.Dir with wal.SyncAlways every accepted batch must be
// fsynced before its ack is released — that is the acked-survives-crash
// contract. Fsyncing inside every ingest serializes the whole tenant on
// disk latency, so instead the ingest path buffers the WAL append
// (wal.AppendBuffered, no fsync) and the ack waits in waitDurable until a
// completed fsync covers its sequence number. One fsync then retires
// every append that landed before it.
//
// The waiters commit among themselves, leader/follower: the first one
// that finds no fsync in flight becomes the leader, runs one flush+fsync
// for the tenant, publishes the covered horizon and wakes the rest.
// Waiters that arrive while it runs wait for it and re-check — their
// append may have landed after the fsync started — and one of them leads
// the next round. Appends keep coalescing while an fsync is in flight,
// tenants fsync concurrently, and there is no goroutine to start or stop.
//
// On the wire the wait moves to the connection (session.release): a
// pipelined burst of E lines is ingested back to back, its acks are
// buffered, and the whole burst's acks are released together after one
// covering fsync, just before the first byte of them reaches the socket.
//
// Ordering guarantee: an ack (including "OK dup" retransmit acks and the
// "OK seq=<n>" HELLO resume point, which implicitly acknowledge earlier
// batches) is released only after wal.Log.Sync has returned and the
// covered sequence number has been observed. A crash between append and
// fsync loses only batches whose ack had not been released.

// waitDurable blocks until a completed fsync covers seq, leading the
// fsync itself when none is in flight. A failed fsync is sticky — a WAL
// that cannot make acks durable can no longer honor the contract — so it
// quarantines the tenant fail-stop, and every current and future waiter
// gets ErrTenantQuarantined.
func (t *tenant) waitDurable(seq uint64) error {
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	for t.ackedDurable < seq && t.commitErr == nil {
		if t.syncing {
			t.commitCond.Wait()
			continue
		}
		t.syncing = true
		t.commitMu.Unlock()
		covered, err := t.syncCovering(seq)
		t.commitMu.Lock()
		t.syncing = false
		if err != nil {
			if t.commitErr == nil {
				t.commitErr = err
				t.quarantineErr(err)
			}
		} else if covered > t.ackedDurable {
			t.ackedDurable = covered
		}
		t.commitCond.Broadcast()
	}
	if t.commitErr != nil {
		return fmt.Errorf("%w: %q: %v", ErrTenantQuarantined, t.id, t.commitErr)
	}
	return nil
}

// syncCovering is the leader's round: one flush+fsync unless the WAL is
// already synced through seq (a segment rotation fsyncs too), and the
// horizon the log now knows durable. An error is reported only when seq
// is still uncovered: Drain and eviction close the log with a final
// fsync, after which a late leader's Sync fails although its batch is
// safe.
func (t *tenant) syncCovering(seq uint64) (uint64, error) {
	if covered := t.wlog.Synced(); covered >= seq {
		return covered, nil
	}
	if t.preSync != nil {
		t.preSync()
	}
	err := t.wlog.Sync()
	t.syncs.Add(1)
	if t.postSync != nil {
		t.postSync()
	}
	covered := t.wlog.Synced()
	if covered >= seq {
		err = nil
	}
	return covered, err
}
