package app

// Profiles returns the measured application personalities in the order
// the paper's figures list them. The scenario registry builds one app
// scheme per profile, named by the profile's lower-cased Name.
func Profiles() []Profile {
	return []Profile{Skype(), Hangout(), Facetime()}
}
