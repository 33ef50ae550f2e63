package memsim

// Hierarchical profile copies, exported to the external test package
// that checks them against internal/machine.
var (
	ClusterMem = clusterMem
	XE6Mem     = xe6Mem
)
