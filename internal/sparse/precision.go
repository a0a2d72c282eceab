package sparse

// Precision named the arithmetic width of the solver and sweep kernels.
// Every kernel is float64 now, so the type has one value.
//
// Deprecated: kept only so existing callers that set
// PrecisionFloat64 still compile; nothing reads it.
type Precision uint8

// PrecisionFloat64 is the only kernel width.
//
// Deprecated: see Precision.
const PrecisionFloat64 Precision = 0
