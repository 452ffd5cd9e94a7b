// Package rawvarint keeps varint records on the one wire kernel.
//
// Source invariant: every binary format in the tree — ".dmtb", dlmond's RPC,
// "DMSN" snapshots, monitor messages, the TCP transport's frames — is laid
// out with internal/wire's Append helpers and read back through its Cursor,
// ReadUvarint and ReadFrame, which is where truncation, overflow, padded
// encodings and hostile counts are handled (internal/wire/wire.go). A direct
// call to encoding/binary's varint functions is the first line of a codec
// that handles them on its own, differently.
//
// The rule: outside internal/wire (and outside tests, which may hand-build
// hostile bytes), any use of encoding/binary's Uvarint, Varint, PutUvarint,
// PutVarint, AppendUvarint, AppendVarint, ReadUvarint or ReadVarint is
// reported. Fixed-width access through binary.LittleEndian/BigEndian is not:
// it has no length to get wrong.
package rawvarint

import (
	"go/ast"
	"go/types"
	"strings"

	"decentmon/internal/analysis"
)

// Analyzer is the rawvarint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "rawvarint",
	Doc:  "flags encoding/binary varint calls outside internal/wire: every varint record goes through the wire kernel's Append helpers and Cursor, where bounds, overflow and padded encodings are checked once (internal/wire/wire.go)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Path, "internal/wire") {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
				return true
			}
			switch fn.Name() {
			case "Uvarint", "Varint", "PutUvarint", "PutVarint",
				"AppendUvarint", "AppendVarint", "ReadUvarint", "ReadVarint":
				pass.Reportf(id.Pos(), "binary.%s outside internal/wire: lay varint records out with wire.Append* and read them back through wire.Cursor, wire.ReadUvarint or wire.ReadFrame", fn.Name())
			}
			return true
		})
	}
	return nil
}
