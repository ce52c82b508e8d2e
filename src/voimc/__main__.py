from .cli import _entry

if __name__ == "__main__":
    _entry()
