package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// Snapfields cross-checks every snapshotted type against its
// checkpoint code. For each package with a snapshot.go, the receiver
// types of the capture methods (Snapshot, State, Checkpoint) and
// restore methods (Restore, SetState) declared there are "snapshotted
// types"; every field of such a type must either be touched by code in
// snapshot.go (read while capturing, assigned while restoring, or
// handled by a helper in that file) or carry a `//ckpt:skip <reason>`
// annotation explaining why it is deliberately absent (derived from
// Config, rebuilt on restore, host-only scratch).
//
// This closes the bug class the checkpoint round-trip tests can only
// sample: a new field added to a simulator struct but forgotten in its
// snapshot silently restores to the zero value, and the resumed run
// diverges from the uninterrupted one only on inputs that exercise the
// field.
var Snapfields = &Analyzer{
	Name: "snapfields",
	Doc: "every field of a snapshotted struct must be covered by its package's snapshot.go " +
		"or annotated //ckpt:skip <reason>",
	Run: runSnapfields,
}

// captureMethods / restoreMethods name the snapshot.go entry points
// whose receivers define the set of snapshotted types.
var (
	captureMethods = map[string]bool{"Snapshot": true, "State": true, "Checkpoint": true}
	restoreMethods = map[string]bool{"Restore": true, "SetState": true}
)

func runSnapfields(pass *Pass) error {
	var snapFile *ast.File
	for _, f := range pass.Syntax {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "snapshot.go" {
			snapFile = f
			break
		}
	}
	if snapFile == nil {
		return nil
	}
	ann := collectAnnotations(pass.Fset, pass.Syntax, "ckpt:skip")

	// 1. Snapshotted types: receivers of capture/restore methods
	// declared in snapshot.go whose underlying type is a struct.
	snapTypes := make(map[*types.Named]*types.Struct)
	for _, decl := range snapFile.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		if !captureMethods[fd.Name.Name] && !restoreMethods[fd.Name.Name] {
			continue
		}
		named := namedOrPointee(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
		if named == nil || named.Obj().Pkg() != pass.Types {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			snapTypes[named] = st
		}
	}

	// 2. Coverage: any field selection on a snapshotted type anywhere
	// in snapshot.go (capture, restore, or helpers like pending()),
	// plus composite-literal construction of the type.
	covered := make(map[*types.Var]bool)
	ast.Inspect(snapFile, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selection := pass.TypesInfo.Selections[n]
			if selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
			if st, ok := snapTypes[namedOrPointee(selection.Recv())]; ok {
				// For promoted fields, charge coverage to the outermost
				// field on the snapshotted type's own struct.
				covered[st.Field(selection.Index()[0])] = true
			}
		case *ast.CompositeLit:
			st, ok := snapTypes[namedOrPointee(pass.TypesInfo.TypeOf(n))]
			for i, elt := range n.Elts {
				if kv, isKV := elt.(*ast.KeyValueExpr); ok && isKV {
					if field, isVar := pass.TypesInfo.Uses[kv.Key.(*ast.Ident)].(*types.Var); isVar {
						covered[field] = true
					}
				} else if ok {
					covered[st.Field(i)] = true
				}
			}
		}
		return true
	})

	// 3. Every field is covered or annotated.
	for named, st := range snapTypes {
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if covered[field] {
				continue
			}
			if reason, ok := ann.at(field.Pos()); ok {
				if reason == "" {
					pass.Reportf(field.Pos(),
						"//ckpt:skip on %s.%s needs a reason explaining why the field is not checkpointed",
						named.Obj().Name(), field.Name())
				}
				continue
			}
			pass.Reportf(field.Pos(),
				"field %s.%s is not covered by %s's snapshot.go: checkpoints will silently drop it; "+
					"serialize it in Snapshot/Restore or annotate //ckpt:skip <reason>",
				named.Obj().Name(), field.Name(), pass.Types.Name())
		}
	}
	return nil
}
