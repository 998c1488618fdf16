package sim

import (
	"path/filepath"
	"strings"

	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/prng"
)

// ChainDataDir returns the subdirectory of a scenario's DataDir holding
// one chain's disk segments. The engine keeps the partitions' stores
// apart — they share gossip, never storage — and a restart must resolve
// the same layout to reopen them.
func ChainDataDir(root, chainName string) string {
	return filepath.Join(root, strings.ToLower(chainName))
}

// PartitionChainConfigs builds every partition's chain config exactly as
// New does, in partition order, so a restarting process can reopen
// persisted chains under identical consensus rules without running the
// simulation.
func PartitionChainConfigs(sc *Scenario) []*chain.Config {
	w := NewWorkload(sc)
	specs := sc.PartitionSpecs()
	out := make([]*chain.Config, len(specs))
	for i, sp := range specs {
		out[i] = sp.ChainConfig(w.DAODrainList(), DAORefundAddress)
	}
	return out
}

// OpenFullLedger reopens a full-fidelity ledger over a store that already
// holds a chain: chain.Open verifies and adopts the persisted head
// instead of writing a genesis. The ledger is wired with the same
// seed-derived seal stream New would hand it, so a process that reopens
// and keeps mining continues the deterministic sequence.
func OpenFullLedger(cfg *chain.Config, sc *Scenario, chainName string, kv db.KV) (*FullLedger, error) {
	bc, err := chain.Open(cfg, kv)
	if err != nil {
		return nil, err
	}
	return &FullLedger{BC: bc, r: prng.New(sc.Seed, "seal", chainName)}, nil
}
