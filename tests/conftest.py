from hypothesis import settings

# Examples build certificates and closures whose run time varies widely, so
# no property has a per-example deadline.
settings.register_profile("gridperc", deadline=None)
settings.load_profile("gridperc")
