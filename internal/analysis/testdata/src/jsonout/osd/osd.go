// Package osd is a cmd/afvet fixture for the -json output mode: one live
// determinism finding (math/rand) and one suppressed finding (sync with a
// justified allow), so the JSON stream must carry both, flagged.
package osd

import (
	"math/rand"
	"sync" //afvet:allow determinism fixture: exercises the suppressed=true branch of -json
)

// A package-level reference keeps the unused analyzer quiet on roll.
var _ = roll

func roll() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return rand.Int()
}
