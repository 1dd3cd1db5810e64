package globalwrite_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/globalwrite"
)

func TestGlobalwrite(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "testdata"), globalwrite.Analyzer,
		"globalwrite/osd", "globalwrite/util")
}
