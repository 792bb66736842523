package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CloserAnalyzer enforces release obligations on first-party resources:
// values of module-local types whose method set includes Close, Finish or
// Abort (cursors, the middleware, the file store) must be released on every
// path when acquired through a constructor-shaped call
// (Open*/New*/Create*/open*/new*/create*). What only this analyzer catches
// is a constructor-acquired resource passed to a helper that never releases
// it: exp/figures.go leaking its middleware when nb.Train fails is visible
// only through nb.Train's summary.
//
// Ownership transfer is respected: resources stored into structs or slices,
// captured by a closure, passed along or returned are not tracked further
// here. So the staging writers mw keeps in struct fields are out of its
// reach; TestCreateErrorAbortsEarlierWriters and
// TestFinishErrorAbortsRemainingWriters pin their Abort paths.
var CloserAnalyzer = &Analyzer{
	Name: "closer",
	Doc:  "resources with Close/Finish/Abort obligations must be released on all paths",
	Run:  runCloser,
}

// closerReleases are the method names that discharge a resource.
var closerReleases = map[string]bool{
	"Close": true, "Finish": true, "Abort": true,
	"close": true, "finish": true, "abort": true,
}

func runCloser(p *Pass) {
	runObligations(p, closerRules())
}

// closerRules is the closer obligation rule set, shared with the summary
// layer.
func closerRules() *obRules {
	return &obRules{
		name:        "closer",
		leakVerb:    "released (Close/Finish/Abort)",
		releaseRecv: closerReleases,
		acquire: func(p *Pass, call *ast.CallExpr) (string, []int, bool) {
			f := calleeFunc(p.Info, call)
			if f == nil || !acquisitiveName(f.Name()) {
				return "", nil, false
			}
			sig := funcSignature(f)
			var idxs []int
			var desc string
			for i := 0; i < sig.Results().Len(); i++ {
				if name, ok := resourceType(p, sig.Results().At(i).Type()); ok {
					idxs = append(idxs, i)
					desc = name
				}
			}
			if len(idxs) == 0 {
				return "", nil, false
			}
			return desc, idxs, true
		},
		paramType: resourceType,
	}
}

// acquisitiveName reports whether the callee name is constructor-shaped:
// opening, creating or newing up the resource, which is when the release
// obligation lands on the caller. Plain accessors returning an existing
// resource do not transfer it.
func acquisitiveName(name string) bool {
	for _, prefix := range []string{"Open", "New", "Create", "open", "new", "create"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// resourceType reports whether t is (a pointer to) a named type or interface
// declared inside the analyzed module whose method set carries a release
// method, and returns a printable name for it.
func resourceType(p *Pass, t types.Type) (string, bool) {
	n := namedOrPtr(t)
	if n == nil {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || p.Module == "" || !inModule(obj.Pkg().Path(), p.Module) {
		return "", false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if closerReleases[ms.At(i).Obj().Name()] {
			return "resource " + obj.Name(), true
		}
	}
	return "", false
}

// inModule reports whether pkgPath lives under the module path.
func inModule(pkgPath, module string) bool {
	return pkgPath == module || strings.HasPrefix(pkgPath, module+"/")
}
