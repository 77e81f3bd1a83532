package core

// Normalize exposes normalize to the external test package.
var Normalize = normalize
