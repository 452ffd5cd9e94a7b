package rawvarint_test

import (
	"testing"

	"decentmon/internal/analysis/analysistest"
	"decentmon/internal/analysis/checkers/rawvarint"
)

func TestRawVarint(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("a"), rawvarint.Analyzer)
}
