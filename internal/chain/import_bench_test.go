package chain

import (
	"bytes"
	"fmt"
	"testing"
)

// buildBenchExport mines a chain with transfer traffic and returns its
// export stream.
func buildBenchExport(b *testing.B, blocks, txsPer int) []byte {
	b.Helper()
	bc, err := NewBlockchain(MainnetLikeConfig(), testGenesis())
	if err != nil {
		b.Fatal(err)
	}
	nonce := uint64(0)
	for i := 0; i < blocks; i++ {
		txs := make([]*Transaction, txsPer)
		for j := range txs {
			txs[j] = transfer(nonce, alice, bob, 1, 0)
			nonce++
		}
		blk, err := bc.BuildBlock(pool1, bc.Head().Header.Time+14, txs)
		if err != nil {
			b.Fatal(err)
		}
		if err := bc.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := bc.WriteChain(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkImportChainWorkers measures the pipelined import at different
// decode/precache worker counts; workers=1 is the serial reference. The
// insert path (state execution, batch commit) stays ordered in every
// variant, so the delta isolates the fanned-out decode + keccak +
// signature + tx-root work.
func BenchmarkImportChainWorkers(b *testing.B) {
	enc := buildBenchExport(b, 50, 20)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				dst, err := NewBlockchain(MainnetLikeConfig(), testGenesis())
				if err != nil {
					b.Fatal(err)
				}
				n, err := dst.ImportChainWorkers(bytes.NewReader(enc), workers)
				if err != nil {
					b.Fatal(err)
				}
				if n != 50 {
					b.Fatalf("imported %d blocks, want 50", n)
				}
			}
		})
	}
}
