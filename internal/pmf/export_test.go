package pmf

// NewForm exposes newForm to the external tests, which score circuits
// from package acl under both storage forms.
var NewForm = newForm
