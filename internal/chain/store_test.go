package chain

import (
	"errors"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/types"
)

// TestVerifyHeadDetectsInconsistency: a manufactured store whose head
// marker points at a missing block must surface ErrCorruptStore (the
// resync fallback signal).
func TestVerifyHeadDetectsInconsistency(t *testing.T) {
	kv := db.NewMemDB()
	if err := kv.Put(keyHead, types.HexToHash("0xdead").Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(kv).verifyHead(); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("verifyHead over inconsistent store = %v, want ErrCorruptStore", err)
	}
	if _, err := Open(MainnetLikeConfig(), kv); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("Open over inconsistent store = %v, want ErrCorruptStore", err)
	}
}
