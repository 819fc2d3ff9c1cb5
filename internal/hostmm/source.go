package hostmm

import "embed"

// Source holds the private-mapping mechanism the Swap Mapper drives,
// which the Table 1 experiment counts. Embedding it keeps that count
// independent of where the binary runs.
//
//go:embed mmap.go
var Source embed.FS
