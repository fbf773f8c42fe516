package lang

// MaxNesting exports the parser's depth bound for the external tests.
const MaxNesting = maxNesting

// TreeDepth exports treeDepth, the depth FuzzParser bounds, for the
// external tests.
var TreeDepth = treeDepth
