// Package scenarios embeds the checked-in scenario files. The experiment
// registry runs fig3, fig5, fig9, fig12, fig13, fig14 and fleetN from
// them, renders fig4, fig11 and backendN from the cells of fig14.yaml,
// pbzip.yaml and backends.yaml, and sizes clusterN from cluster.yaml, so
// each of those experiments has exactly one definition: its YAML file
// here.
package scenarios

import "embed"

// FS holds every *.yaml file in this directory.
//
//go:embed *.yaml
var FS embed.FS
