package sharedevent_test

import (
	"testing"

	"decentmon/internal/analysis/analysistest"
	"decentmon/internal/analysis/checkers/sharedevent"
)

func TestSharedEvent(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("a"), sharedevent.Analyzer)
}
