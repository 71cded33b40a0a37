from hypothesis import settings

# Property tests replay the same examples on every run, so the suite is
# deterministic, and leave no example database behind.
settings.register_profile("deterministic", derandomize=True, database=None, max_examples=300)
settings.load_profile("deterministic")
