package unused_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/unused"
)

func TestUnused(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata"), unused.Analyzer, "unused/app")
}
