package memsim_test

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
)

// TestHierarchicalConfigsVerbatim pins the fast-forward oracles'
// copies of the hierarchical memory systems to the machine profiles.
func TestHierarchicalConfigsVerbatim(t *testing.T) {
	for _, c := range []struct {
		copy, profile memsim.Config
	}{
		{memsim.ClusterMem(), machine.MulticoreCluster().Mem},
		{memsim.XE6Mem(), machine.CrayXE6().Mem},
	} {
		if c.copy != c.profile {
			t.Errorf("%s: test copy %+v != profile %+v", c.profile.Name, c.copy, c.profile)
		}
	}
}
