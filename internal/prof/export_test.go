package prof

// DecodeProfileSetReflect exposes the reflection oracle to the external
// test package, whose tests need the full pipeline (scalana, ppg, detect).
var DecodeProfileSetReflect = decodeProfileSetReflect
