// Package checkers registers the declint analyzer suite: the project's own
// invariant checks, bundled by cmd/declint.
package checkers

import (
	"decentmon/internal/analysis"
	"decentmon/internal/analysis/checkers/blockingsend"
	"decentmon/internal/analysis/checkers/clockalias"
	"decentmon/internal/analysis/checkers/facadeexport"
	"decentmon/internal/analysis/checkers/floormonotone"
	"decentmon/internal/analysis/checkers/propmask"
	"decentmon/internal/analysis/checkers/rawvarint"
	"decentmon/internal/analysis/checkers/sharedevent"
)

// All returns the full declint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		blockingsend.Analyzer,
		clockalias.Analyzer,
		facadeexport.Analyzer,
		floormonotone.Analyzer,
		propmask.Analyzer,
		rawvarint.Analyzer,
		sharedevent.Analyzer,
	}
}
