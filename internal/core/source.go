package core

import "embed"

// Source holds this package's Mapper and Preventer sources, which the
// Table 1 experiment counts. Embedding them keeps that count independent
// of where the binary runs.
//
//go:embed mapper.go preventer.go
var Source embed.FS
