package lang

// MaxNesting exports the parser's depth bound for the external tests.
const MaxNesting = maxNesting
