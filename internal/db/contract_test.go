package db_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/db/faultkv"
)

// contractStore is one row of the batch-contract table: a store, a way to
// make its next batch commit fail, and a way to restart the process.
type contractStore struct {
	kv db.KV
	// fail arms a failure (a veto or a crash) on the next batch commit.
	fail func()
	// commit writes a batch the way the stack's users do; nil means
	// b.Write().
	commit func(b db.Batch) error
	// reopen models the process coming back up after the failure and
	// returns the store as the restarted process sees it.
	reopen func() db.KV
}

// vetoMemDB is a MemDB whose write guard, once armed, refuses one key.
func vetoMemDB(key []byte) (*db.MemDB, func(), func()) {
	m := db.NewMemDB()
	armed := false
	m.SetWriteGuard(func(k, _ []byte, _ bool) error {
		if armed && bytes.Equal(k, key) {
			return errors.New("vetoed")
		}
		return nil
	})
	return m, func() { armed = true }, func() { armed = false }
}

// crashDisk opens diskdb over a faultfile medium in a fresh directory.
// Its fail arms a crash on the next append, and its reopen replays the
// surviving segment files into a new store.
func crashDisk(t *testing.T) (*diskdb.DB, func(), func() *diskdb.DB) {
	t.Helper()
	osfs, err := dbfs.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfile.Wrap(osfs, faultfile.Faults{})
	d, err := diskdb.Open(ffs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fail := func() { ffs.CrashAtWriteOp(ffs.WriteOps() + 1) }
	reopen := func() *diskdb.DB {
		d.Close()
		ffs.Reopen()
		d2, err := diskdb.Open(ffs, diskdb.Options{})
		if err != nil {
			t.Fatalf("diskdb.Open after crash: %v", err)
		}
		t.Cleanup(func() { d2.Close() })
		return d2
	}
	return d, fail, reopen
}

// TestBatchAtomicAcrossCrash is db.KV's batch contract, run against every
// backend and wrapper: after a batch commit that failed or crashed, and a
// restart, either every operation of the batch is visible or none is.
func TestBatchAtomicAcrossCrash(t *testing.T) {
	const n = 16
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%02d", i)) }
	victim := []byte("victim")

	rows := []struct {
		name string
		open func(t *testing.T) contractStore
	}{
		{"memdb", func(t *testing.T) contractStore {
			m, arm, disarm := vetoMemDB(key(n / 2))
			return contractStore{kv: m, fail: arm, reopen: func() db.KV { disarm(); return m }}
		}},
		{"diskdb", func(t *testing.T) contractStore {
			d, fail, reopen := crashDisk(t)
			return contractStore{kv: d, fail: fail, reopen: func() db.KV { return reopen() }}
		}},
		{"cache", func(t *testing.T) contractStore {
			// The same Cache serves after the veto: a failed Write must
			// not have warmed it with the batch's values.
			m, arm, disarm := vetoMemDB(key(n / 2))
			c := db.NewCache(m, 1024)
			return contractStore{kv: c, fail: arm, reopen: func() db.KV { disarm(); return c }}
		}},
		{"retry", func(t *testing.T) contractStore {
			d, fail, reopen := crashDisk(t)
			return contractStore{kv: db.NewRetry(d, 3), fail: fail,
				reopen: func() db.KV { return db.NewRetry(reopen(), 3) }}
		}},
		{"coalescer", func(t *testing.T) contractStore {
			// The overlay dies with the process; only what Flush made
			// durable survives the restart.
			d, fail, reopen := crashDisk(t)
			c := db.NewCoalescer(d)
			return contractStore{kv: c, fail: fail,
				commit: func(b db.Batch) error {
					if err := b.Write(); err != nil {
						return err
					}
					return c.Flush()
				},
				reopen: func() db.KV { return reopen() }}
		}},
		{"faultkv", func(t *testing.T) contractStore {
			fkv := faultkv.Wrap(db.NewMemDB(), faultkv.Faults{})
			return contractStore{kv: fkv,
				// Land the crash on the third operation of the batch.
				fail:   func() { fkv.CrashAtWriteOp(fkv.WriteOps() + 3) },
				reopen: func() db.KV { fkv.Reopen(); return fkv }}
		}},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st := row.open(t)
			commit := st.commit
			if commit == nil {
				commit = func(b db.Batch) error { return b.Write() }
			}

			pre := st.kv.NewBatch()
			pre.Put(victim, []byte("before"))
			if err := commit(pre); err != nil {
				t.Fatalf("setup batch: %v", err)
			}

			b := st.kv.NewBatch()
			for i := 0; i < n; i++ {
				b.Put(key(i), []byte{byte(i)})
			}
			b.Delete(victim)
			st.fail()
			if err := commit(b); err == nil {
				t.Fatal("armed failure did not fail the batch")
			}

			kv := st.reopen()
			visible := 0
			for i := 0; i < n; i++ {
				v, ok, err := kv.Get(key(i))
				if err != nil {
					t.Fatalf("reading %s after reopen: %v", key(i), err)
				}
				if ok {
					if !bytes.Equal(v, []byte{byte(i)}) {
						t.Fatalf("%s = %x after reopen", key(i), v)
					}
					visible++
				}
			}
			kept, err := kv.Has(victim)
			if err != nil {
				t.Fatal(err)
			}
			if none, all := visible == 0 && kept, visible == n && !kept; !none && !all {
				t.Fatalf("partial batch after reopen: %d of %d puts visible, delete applied %v",
					visible, n, !kept)
			}

			// The reopened store keeps committing batches.
			after := kv.NewBatch()
			after.Put([]byte("after"), []byte("ok"))
			if err := after.Write(); err != nil {
				t.Fatalf("batch after reopen: %v", err)
			}
			if ok, _ := kv.Has([]byte("after")); !ok {
				t.Fatal("batch after reopen not visible")
			}
		})
	}
}
