package chain

import (
	"bytes"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
	"forkwatch/internal/db/diskdb"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/db/faultkv"
)

// donorChain mines a short canonical chain on a pristine store and
// returns it with its WriteChain stream.
func donorChain(t *testing.T) (*Blockchain, []byte) {
	t.Helper()
	bc := newTestChain(t, MainnetLikeConfig())
	nonce := uint64(0)
	for i := 0; i < 6; i++ {
		var txs []*Transaction
		if i%2 == 0 {
			txs = append(txs, transfer(nonce, alice, bob, 1_000, 0))
			nonce++
		}
		mine(t, bc, 13, txs...)
	}
	var buf bytes.Buffer
	if err := bc.WriteChain(&buf); err != nil {
		t.Fatal(err)
	}
	return bc, buf.Bytes()
}

// commitOffsets is the calibration run of a crash sweep: it inserts the
// donor's canonical blocks into bc one InsertBlock at a time — the write
// sequence ImportChain issues — and returns, per block, the write-op
// count since the first insert at which that block's chain batch had
// completed. A crash armed on write op off (counted the same way) leaves
// exactly the blocks whose offset is below off durable.
func commitOffsets(t *testing.T, donor, bc *Blockchain, writeOps func() uint64) []uint64 {
	t.Helper()
	start := writeOps()
	var offs []uint64
	for n := uint64(1); n <= donor.Head().Number(); n++ {
		src, _ := donor.BlockByNumber(n)
		b, err := DecodeBlock(src.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.InsertBlock(b); err != nil {
			t.Fatalf("calibration insert %d: %v", n, err)
		}
		offs = append(offs, writeOps()-start)
	}
	return offs
}

// durableBlocks counts the blocks whose chain batch completed before a
// crash on write op off.
func durableBlocks(offs []uint64, off uint64) uint64 {
	n := uint64(0)
	for _, o := range offs {
		if o < off {
			n++
		}
	}
	return n
}

// checkRecovered asserts the crash-recovery contract for a chain
// reopened after a crash on write op off during an ImportChain that
// acknowledged imported blocks: the head is exactly the last durable
// block — never a partial one — every recovered canonical block is the
// donor's, and resuming the import converges on the donor head.
func checkRecovered(t *testing.T, off uint64, re, donor *Blockchain, stream []byte, imported int, offs []uint64) {
	t.Helper()
	if want := durableBlocks(offs, off); re.Head().Number() != want {
		t.Fatalf("off %d: recovered head %d, calibration says %d blocks durable",
			off, re.Head().Number(), want)
	}
	// The acknowledged imports are a lower bound; the in-flight block
	// may have become durable before the crash was reported.
	if got := re.Head().Number(); got < uint64(imported) || got > uint64(imported)+1 {
		t.Fatalf("off %d: recovered head %d outside [%d, %d]",
			off, got, imported, imported+1)
	}
	// No divergent partial state: every recovered canonical block is the
	// donor's block at that height.
	for n := uint64(0); n <= re.Head().Number(); n++ {
		want, _ := donor.BlockByNumber(n)
		got, ok := re.BlockByNumber(n)
		if !ok || got.Hash() != want.Hash() {
			t.Fatalf("off %d: recovered canon %d diverged from donor", off, n)
		}
	}
	if _, err := re.ImportChain(bytes.NewReader(stream)); err != nil {
		t.Fatalf("off %d: resumed import: %v", off, err)
	}
	if re.Head().Hash() != donor.Head().Hash() {
		t.Fatalf("off %d: resumed head %s, want %s", off, re.Head().Hash(), donor.Head().Hash())
	}
}

// TestCrashMidImportRecovers is the crash-restart round trip over
// faultkv: kill the store at every write offset inside an ImportChain,
// reopen, and require that the chain lands exactly on the last durably
// committed head. faultkv drops a crashed batch whole, so that head is
// also exactly the acknowledged import count.
func TestCrashMidImportRecovers(t *testing.T) {
	donor, stream := donorChain(t)

	calibKV := faultkv.Wrap(db.NewMemDB(), faultkv.Faults{})
	calib, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), calibKV)
	if err != nil {
		t.Fatal(err)
	}
	offs := commitOffsets(t, donor, calib, calibKV.WriteOps)
	totalOps := offs[len(offs)-1]
	if totalOps < 20 {
		t.Fatalf("import footprint suspiciously small: %d write ops", totalOps)
	}

	for off := uint64(1); off <= totalOps; off++ {
		fkv := faultkv.Wrap(db.NewMemDB(), faultkv.Faults{})
		victim, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), fkv)
		if err != nil {
			t.Fatal(err)
		}
		fkv.CrashAtWriteOp(fkv.WriteOps() + off)
		imported, err := victim.ImportChain(bytes.NewReader(stream))
		if err == nil {
			t.Fatalf("off %d: import survived an armed crash", off)
		}
		if uint64(imported) != victim.Head().Number() {
			t.Fatalf("off %d: memory head %d does not match %d acknowledged imports",
				off, victim.Head().Number(), imported)
		}

		fkv.Reopen()
		re, err := Open(MainnetLikeConfig(), fkv)
		if err != nil {
			t.Fatalf("off %d: Open after crash: %v", off, err)
		}
		if got := re.Head().Number(); got != uint64(imported) {
			t.Fatalf("off %d: recovered head %d, want the %d acknowledged imports", off, got, imported)
		}
		checkRecovered(t, off, re, donor, stream, imported, offs)
	}
}

// diskStack opens a fresh disk store over a real directory, with the
// faultfile layer (no random plan) in between so tests can count appends
// and arm crashes on the physical medium.
func diskStack(t *testing.T, dir string) (*faultfile.FS, *diskdb.DB) {
	t.Helper()
	osfs, err := dbfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfile.Wrap(osfs, faultfile.Faults{})
	d, err := diskdb.Open(ffs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ffs, d
}

// TestDiskCrashSweepMidImport is the disk-backend counterpart of
// TestCrashMidImportRecovers, and it is exhaustive: the medium is killed
// at EVERY physical append position inside an ImportChain. Each kill
// tears a random strict prefix of that append onto the real files; the
// restart path (diskdb.Open segment replay, which drops the torn batch
// group, then chain.Open) must land exactly on the last durably
// committed head — never a partial block — and resuming the import must
// converge on the donor chain.
func TestDiskCrashSweepMidImport(t *testing.T) {
	donor, stream := donorChain(t)

	calibFS, calibDB := diskStack(t, t.TempDir())
	calib, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), calibDB)
	if err != nil {
		t.Fatal(err)
	}
	offs := commitOffsets(t, donor, calib, calibFS.WriteOps)
	totalOps := offs[len(offs)-1]
	calibDB.Close()
	if totalOps < 10 {
		t.Fatalf("import footprint suspiciously small: %d appends", totalOps)
	}

	for off := uint64(1); off <= totalOps; off++ {
		ffs, d := diskStack(t, t.TempDir())
		victim, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), d)
		if err != nil {
			t.Fatal(err)
		}
		ffs.CrashAtWriteOp(ffs.WriteOps() + off)
		imported, err := victim.ImportChain(bytes.NewReader(stream))
		if err == nil {
			t.Fatalf("off %d: import survived an armed crash", off)
		}
		if uint64(imported) != victim.Head().Number() {
			t.Fatalf("off %d: memory head %d does not match %d acknowledged imports",
				off, victim.Head().Number(), imported)
		}

		// The process restarts over the surviving files: close the dead
		// store, clear the crash, replay the segments, reopen the chain.
		d.Close()
		ffs.Reopen()
		d2, err := diskdb.Open(ffs, diskdb.Options{})
		if err != nil {
			t.Fatalf("off %d: diskdb.Open after crash: %v", off, err)
		}
		re, err := Open(MainnetLikeConfig(), d2)
		if err != nil {
			t.Fatalf("off %d: chain.Open after crash: %v", off, err)
		}
		checkRecovered(t, off, re, donor, stream, imported, offs)
		d2.Close()
	}
}

// TestDiskReopenAcrossProcessModel is the plain (no-crash) durability
// round trip on the real filesystem: mine, close cleanly, reopen from
// the directory alone, and keep mining.
func TestDiskReopenAcrossProcessModel(t *testing.T) {
	dir := t.TempDir()
	osfs, err := dbfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diskdb.Open(osfs, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBlockchainWithDB(MainnetLikeConfig(), testGenesis(), d)
	if err != nil {
		t.Fatal(err)
	}
	mine(t, bc, 13, transfer(0, alice, bob, 500, 0))
	mine(t, bc, 13)
	head := bc.Head().Hash()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	osfs2, err := dbfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := diskdb.Open(osfs2, diskdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	re, err := Open(MainnetLikeConfig(), d2)
	if err != nil {
		t.Fatalf("Open from directory: %v", err)
	}
	if re.Head().Hash() != head {
		t.Fatalf("reopened head %s, want %s", re.Head().Hash(), head)
	}
	mine(t, re, 13, transfer(1, alice, bob, 100, 0))
}
