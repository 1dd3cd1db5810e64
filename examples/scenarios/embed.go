// Package scenarios holds the four canonical scenario files. The JSON files
// in this directory are the only copy: `afsim -scenario` reads them from
// disk, and scenario.Canon serves the same bytes, embedded here, to the
// scenarios figure and the differential determinism harness.
package scenarios

import "embed"

// FS holds every *.json file in this directory.
//
//go:embed *.json
var FS embed.FS
